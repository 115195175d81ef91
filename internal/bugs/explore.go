package bugs

import "fmt"

// Schedule-exploration fixtures.
//
// The Table 6 sources are tuned for detection-time measurement: unbounded
// racer loops that stop at the first violation. The differential oracle in
// internal/explore needs something different — a *bounded* program whose
// final memory state can be compared against a serial execution — so each
// bug also carries an ExploreSource: the same access pattern, run for a
// fixed number of iterations by two threads.
//
// The snapshot observables are witness variables, not the racy counters
// themselves. A witness is incremented only when a thread's own reads
// inside one atomic region observe one of the Figure 2 non-serializable
// interleavings (two reads of the same variable disagreeing, a reader
// seeing a torn intermediate value, a just-written value changing before
// the next read). Every serial execution — any non-preemptive thread order
// — leaves every witness at 0, so a nonzero witness is a schedule-induced
// divergence. Witnesses are decided strictly before the region's final
// write, which matters in prevention mode: Kivati's suspension timeout and
// begin-retry bounds (§3.3, Figure 5) deliberately let a *delayed* remote
// write commit eventually, so raw final counter values are best-effort,
// but a remote write that lands inside an armed region is undone
// synchronously and can never be observed by the region's own reads. That
// is exactly the single-variable serializability guarantee the engine
// makes, and exactly what the witnesses measure.
//
// Two structural rules keep the witnesses sound against the engine's other
// escape hatch, the begin-retry bound. The pairing analysis pairs an access
// with *every* preceding access in the function (Figure 4), so an inline
// reset write would form a (W,W) pair with the region's final write — and
// (W,W) regions watch *reads* (Figure 6), which suspends the other thread's
// first-read begin_atomic until it gives up at the retry bound and runs
// its witness window unmonitored. So: (1) every fixture's witness variable
// has only regions whose first access is a read — such begins are never
// suspended, hence never give up — and (2) resets and refills live in
// single-access helper functions, which own no atomic region at all (the
// annotator pairs per function) while their writes still trap on armed
// remote watchpoints. Apache 25520 inverts the trick: the *reader's* single
// read lives in a helper, so the writer's W..W begin is never suspended and
// its torn window is always armed.

// exploreIters is the per-thread iteration count of every fixture: small
// enough that a schedule runs in ~100k virtual ticks, large enough that a
// random preemption lands in a vulnerable window with good probability.
const exploreIters = 24

// exploreDriver wraps a per-iteration step function in the bounded
// two-thread harness. Both workers run exploreIters iterations of
// step(id, i); main initializes shared state, spawns them and joins on
// bug_done. step bodies are syscall-free, so under a non-preemptive
// scheduler every step runs atomically — the serial reference the oracle
// compares against.
func exploreDriver(globals, helpers, init string) string {
	return fmt.Sprintf(`%s
int bug_done;
int bug_lk;
%s
void work(int id) {
    int i;
    i = 0;
    while (i < %d) {
        step(id, i);
        i = i + 1;
    }
    lock(bug_lk);
    bug_done = bug_done + 1;
    unlock(bug_lk);
}
void main() {
%s    spawn(work, 1);
    spawn(work, 2);
    while (bug_done < 2) {
        yield();
    }
}
`, globals, helpers, exploreIters, init)
}

// exploreFixture is one bug's bounded program and observables.
type exploreFixture struct {
	source string
	vars   []string
}

// attachExplore fills in a bug's exploration fixture.
func attachExplore(b *Bug) {
	f, ok := exploreFixtures[b.App+"/"+b.ID]
	if !ok {
		return
	}
	b.ExploreSource = f.source
	b.SnapshotVars = f.vars
}

var exploreFixtures = map[string]exploreFixture{
	// Lost update on the log offset: two reads bracketing the compute
	// disagree iff a remote write landed in the window (R-W-R).
	"Apache/44402": {
		source: exploreDriver(`
int log_off;
int log_buf[16];
int lost;
`, `
void step(int id, int i) {
    int off;
    int o2;
    int msg;
    int j;
    off = log_off;
    msg = id * 7 + i;
    j = 0;
    while (j < 6) {
        msg = msg * 31 + j;
        j = j + 1;
    }
    o2 = log_off;
    if (o2 != off) {
        lost = lost + 1;
    }
    log_buf[off % 16] = msg;
    log_off = off + 1;
}
`, ""),
		vars: []string{"lost"},
	},

	// Refcount double decrement: the witness sees the count move under
	// its feet between read and re-read. The pad loop advances only its
	// counter: a loop-carried write to a scratch local would create a
	// loop-resident local AR inside the window, whose churn interacts
	// with the suspension timeout and (empirically) leaks the window.
	"Apache/21287": {
		source: exploreDriver(`
int entry_ref;
int dbl;
`, `
void step(int id, int i) {
    int r;
    int r2;
    int d;
    int j;
    r = entry_ref;
    d = r + id;
    j = 0;
    while (j < 3) {
        j = j + 1;
    }
    r2 = entry_ref;
    if (r2 != r) {
        dbl = dbl + 1;
    }
    entry_ref = r - 1;
}
`, "    entry_ref = 48;\n"),
		vars: []string{"dbl"},
	},

	// Torn update: the writer invalidates then republishes (W..W); a
	// reader that observes the transient 0 saw the W-R-W dirty read. The
	// reader's single access lives in peek() so the reader owns no atomic
	// region and the writer's region is always armed.
	"Apache/25520": {
		source: exploreDriver(`
int line_ptr;
int torn;
`, `
int peek(int x) {
    return line_ptr;
}
void wr(int i) {
    int d;
    int j;
    line_ptr = 0;
    d = i;
    j = 0;
    while (j < 6) {
        d = d * 31 + j;
        j = j + 1;
    }
    line_ptr = i + 1;
}
void step(int id, int i) {
    int p;
    if (id == 1) {
        wr(i);
    } else {
        p = peek(0);
        if (p == 0) {
            torn = torn + 1;
        }
    }
}
`, "    line_ptr = 1;\n"),
		vars: []string{"torn"},
	},

	// The Figure 1 check-then-act: the NULL check and the assignment
	// bracket the allocation; the witness re-check sees a remote init
	// land in between (R-W-W observed from the reading side). The reset
	// lives in zap() so it never pairs with the assignment into a
	// read-watching (W,W) region.
	"NSS/341323": {
		source: exploreDriver(`
int sess_ptr;
int clob;
`, `
void zap(int x) {
    sess_ptr = 0;
}
void step(int id, int i) {
    int p;
    int j;
    if (id == 1) {
        if (i % 4 == 0) {
            zap(0);
        }
    }
    if (sess_ptr == 0) {
        p = id * 100 + 1;
        j = 0;
        while (j < 6) {
            p = p * 31 + j;
            j = j + 1;
        }
        if (sess_ptr != 0) {
            clob = clob + 1;
        }
        sess_ptr = p;
    }
}
`, ""),
		vars: []string{"clob"},
	},

	// Double initialization: same shape as Figure 1 with the init flag;
	// the reset is a helper for the same (W,W)-avoidance reason.
	"NSS/329072": {
		source: exploreDriver(`
int initialized;
int table;
int dbl;
`, `
void zap(int x) {
    initialized = 0;
}
void step(int id, int i) {
    int v;
    int j;
    if (id == 1) {
        if (i % 2 == 0) {
            zap(0);
        }
    }
    if (initialized == 0) {
        v = id;
        j = 0;
        while (j < 8) {
            v = v * 31 + j;
            j = j + 1;
        }
        if (initialized != 0) {
            dbl = dbl + 1;
        }
        table = v;
        initialized = 1;
    }
}
`, ""),
		vars: []string{"dbl"},
	},

	// Unlocked statistics counter.
	"NSS/225525": {
		source: exploreDriver(`
int ssl_handshakes;
int lost;
`, `
void step(int id, int i) {
    int c;
    int c2;
    int j;
    c = ssl_handshakes;
    j = 0;
    while (j < 5) {
        j = j + 1;
    }
    c2 = ssl_handshakes;
    if (c2 != c) {
        lost = lost + 1;
    }
    ssl_handshakes = c + 1;
}
`, ""),
		vars: []string{"lost"},
	},

	// Freelist pop: head read twice around the detach compute; a remote
	// pop or refill in the window makes the reads disagree (R-W-R). The
	// refill is a helper so it never pairs with the detach write.
	"NSS/270689": {
		source: exploreDriver(`
int freelist;
int dup;
`, `
void refill(int v) {
    freelist = v;
}
void step(int id, int i) {
    int head;
    int h2;
    int j;
    if (i % 3 == 0) {
        refill(id * 64 + i + 1);
    }
    if (freelist != 0) {
        head = freelist;
        j = 0;
        while (j < 6) {
            j = j + 1;
        }
        h2 = freelist;
        if (h2 != head) {
            dup = dup + 1;
        }
        freelist = 0;
    }
}
`, ""),
		vars: []string{"dup"},
	},

	// Narrow TOCTOU on the session flag: two back-to-back reads — a
	// window of a couple of instructions — disagree only if the remote
	// test-and-set or release (both single-access helpers) lands exactly
	// between them.
	"NSS/169296": {
		source: exploreDriver(`
int sess_flag;
int steal;
`, `
void set(int v) {
    sess_flag = v;
}
void step(int id, int i) {
    int a;
    int b;
    a = sess_flag;
    b = sess_flag;
    if (b != a) {
        steal = steal + 1;
    }
    if (a == 0) {
        set(id);
    } else {
        set(0);
    }
}
`, ""),
		vars: []string{"steal"},
	},

	// Infrequent lost update on the cache size.
	"NSS/201134": {
		source: exploreDriver(`
int cert_cache_sz;
int lost;
`, `
void step(int id, int i) {
    int sz;
    int sz2;
    int j;
    sz = cert_cache_sz;
    j = 0;
    while (j < 4) {
        j = j + 1;
    }
    sz2 = cert_cache_sz;
    if (sz2 != sz) {
        lost = lost + 1;
    }
    cert_cache_sz = sz + 1;
}
`, ""),
		vars: []string{"lost"},
	},

	// Row-count maintenance: the row insert sits inside the window.
	"MySQL/19938": {
		source: exploreDriver(`
int row_count;
int rows[8];
int lost;
`, `
void step(int id, int i) {
    int n;
    int n2;
    int j;
    n = row_count;
    j = 0;
    while (j < 5) {
        j = j + 1;
    }
    rows[n % 8] = id * 10 + i;
    n2 = row_count;
    if (n2 != n) {
        lost = lost + 1;
    }
    row_count = n + 1;
}
`, ""),
		vars: []string{"lost"},
	},

	// Binlog sequence claim.
	"MySQL/25306": {
		source: exploreDriver(`
int binlog_seq;
int binlog[8];
int lost;
`, `
void step(int id, int i) {
    int s;
    int s2;
    int j;
    s = binlog_seq;
    j = 0;
    while (j < 5) {
        j = j + 1;
    }
    binlog[s % 8] = id;
    s2 = binlog_seq;
    if (s2 != s) {
        lost = lost + 1;
    }
    binlog_seq = s + 1;
}
`, ""),
		vars: []string{"lost"},
	},
}
