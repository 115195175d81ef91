package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/kernel"
)

// runDispatch compiles and runs src under one dispatch mode, tolerating
// faults (fault equivalence across modes is part of what these tests
// check).
func runDispatch(t *testing.T, src string, o runOpts, d DispatchMode) (*Machine, *Result) {
	t.Helper()
	m := newDispatch(t, src, o, d)
	return m, m.Run()
}

// newDispatch compiles src and returns a machine under dispatch mode d with
// o's threads started, ready to Run.
func newDispatch(t *testing.T, src string, o runOpts, d DispatchMode) *Machine {
	t.Helper()
	bin := buildSrc(t, src, o.compile)
	if o.kcfg.Opt == kernel.OptOptimized && o.compile.ShadowWrites {
		o.kcfg.ShadowDelta = compile.ShadowDelta
	}
	k := kernel.New(o.kcfg, o.wl, nil, nil)
	cfg := o.mcfg
	cfg.Dispatch = d
	m, err := New(bin, k, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	starts := o.starts
	if len(starts) == 0 {
		starts = []startSpec{{fn: "main"}}
	}
	for _, s := range starts {
		if _, err := m.Start(s.fn, s.arg); err != nil {
			t.Fatalf("Start(%s): %v", s.fn, err)
		}
	}
	return m
}

// assertDispatchEqual runs src under DispatchStep and DispatchFast and
// requires bit-identical observable state: outputs, ticks, reason, faults,
// kernel stats, violations, final memory image, and per-thread registers.
// It returns the fast run's result.
func assertDispatchEqual(t *testing.T, name, src string, o runOpts) *Result {
	t.Helper()
	ms, rs := runDispatch(t, src, o, DispatchStep)
	mf, rf := runDispatch(t, src, o, DispatchFast)

	if rs.FastInstructions != 0 || rs.FastWindows != 0 {
		t.Errorf("%s: DispatchStep retired %d fast instructions in %d windows, want 0",
			name, rs.FastInstructions, rs.FastWindows)
	}
	if rs.Reason != rf.Reason {
		t.Errorf("%s: reason step=%q fast=%q", name, rs.Reason, rf.Reason)
	}
	if rs.Ticks != rf.Ticks {
		t.Errorf("%s: ticks step=%d fast=%d", name, rs.Ticks, rf.Ticks)
	}
	if !reflect.DeepEqual(rs.Output, rf.Output) {
		t.Errorf("%s: output step=%v fast=%v", name, rs.Output, rf.Output)
	}
	if !reflect.DeepEqual(rs.Faults, rf.Faults) {
		t.Errorf("%s: faults step=%v fast=%v", name, rs.Faults, rf.Faults)
	}
	if !reflect.DeepEqual(rs.Latencies, rf.Latencies) {
		t.Errorf("%s: latencies differ", name)
	}
	if !reflect.DeepEqual(rs.Stats, rf.Stats) {
		t.Errorf("%s: stats step=%+v fast=%+v", name, rs.Stats, rf.Stats)
	}
	if !reflect.DeepEqual(rs.Violations, rf.Violations) {
		t.Errorf("%s: violations step=%v fast=%v", name, rs.Violations, rf.Violations)
	}
	if hs, hf := ms.MemHash(), mf.MemHash(); hs != hf {
		t.Errorf("%s: memory hash step=%#x fast=%#x", name, hs, hf)
	}
	if ms.NumThreads() != mf.NumThreads() {
		t.Fatalf("%s: thread count step=%d fast=%d", name, ms.NumThreads(), mf.NumThreads())
	}
	for tid := 0; tid < ms.NumThreads(); tid++ {
		ts, tf := ms.Thread(tid), mf.Thread(tid)
		if ts.Regs != tf.Regs || ts.PC != tf.PC || ts.State != tf.State {
			t.Errorf("%s: thread %d state differs: step pc=%#x fast pc=%#x", name, tid, ts.PC, tf.PC)
		}
	}
	return rf
}

func TestDispatchEquivalence(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"single-thread-loop", `
void main() {
    int i;
    int sum;
    i = 0;
    sum = 0;
    while (i < 20000) {
        sum = sum + i;
        i = i + 1;
    }
    print(sum);
}`},
		{"recursion", `
int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
void main() {
    print(fib(15));
}`},
		{"spawn-racy-counter", `
int counter;
int lk;
int done;
void worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        counter = counter + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 4000);
    spawn(worker, 4000);
    while (done < 2) {
        yield();
    }
    print(counter);
}`},
		{"spawn-locked-counter", `
int counter;
int lk;
void worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        lock(lk);
        counter = counter + 1;
        unlock(lk);
        i = i + 1;
    }
}
void main() {
    spawn(worker, 500);
    spawn(worker, 500);
    while (counter < 1000) {
        yield();
    }
    print(counter);
}`},
		{"sleep-and-events", `
int lk;
int done;
void waiter(int n) {
    sleep(n);
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(waiter, 700);
    spawn(waiter, 1300);
    while (done < 2) {
        yield();
    }
    print(done);
}`},
		{"division-fault", `
void main() {
    int i;
    int v;
    i = 0;
    v = 7;
    while (i < 1000) {
        i = i + 1;
    }
    print(v / (i - 1000));
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cores := range []int{2, 3, 4} {
				o := defaultRunOpts()
				o.mcfg.Cores = cores
				assertDispatchEqual(t, fmt.Sprintf("%s/cores=%d", tc.name, cores), tc.src, o)
			}
		})
	}
}

// chunkRaceSrc holds threads of straight-line code: stretches that touch
// only their own frames, which the multi-core lockstep may retire as
// chunks, between accesses to one shared global, whose interleaving decides
// the final value and must never be chunked. Worker 2 ends in a division by
// zero inside an otherwise independent block. Annotated, holder keeps an
// atomic region on g open across a loop over its own frame while reader's
// blocks, each reading g, run checked against it.
const chunkRaceSrc = `
int g;
void worker(int k) {
    int i;
    int a;
    int b;
    int c;
    i = 0;
    a = k;
    b = 3;
    while (i < 400) {
        a = a * 5 + i;
        b = b + a - k;
        c = a - b + 7;
        a = c * 3 - b;
        b = b * 7 + c;
        g = g * 3 + k;
        g = g + a - b;
        c = c + i;
        a = a + c;
        b = b - a;
        if (k == 2) {
            if (i == 200) {
                c = a - b;
                a = a * 3;
                b = a / (i - 200);
            }
        }
        i = i + 1;
    }
    print(g);
}
void reader(int k) {
    int i;
    int a;
    int s;
    i = 0;
    a = k;
    s = 0;
    while (i < 400) {
        a = a * 5 + i;
        a = a - i * 3;
        s = s + g;
        a = a + s;
        i = i + 1;
    }
    print(s + a);
}
void holder(int k) {
    int i;
    int j;
    int a;
    int c;
    i = 0;
    a = k;
    while (i < 400) {
        c = g;
        j = 0;
        while (j < 20) {
            a = a * 3 + j;
            j = j + 1;
        }
        g = c + a;
        i = i + 1;
    }
}
`

// TestFastPathChunkRace checks the chunked lockstep against the reference
// interpreter on a program where reordering any two racing accesses would
// show: memory, registers, outputs and the fault must match at every core
// count, and chunks must actually have run. The first active core leads
// every chunk and alone may stop inside one, so the cases put a lead that
// can stop on core 0: the dividing worker (div-leads), blocks that run
// checked because the workers' atomic regions on g arm watchpoints
// (prevention), and reader's checked blocks stopping at a trapping read of
// g while holder, inside its atomic region, follows (checked-lead).
func TestFastPathChunkRace(t *testing.T) {
	cases := []struct {
		name     string
		starts   []startSpec
		annotate bool
		faults   int
	}{
		{"plain", []startSpec{{"worker", 1}, {"worker", 2}}, false, 1},
		{"div-leads", []startSpec{{"worker", 2}, {"worker", 1}}, false, 1},
		{"prevention", []startSpec{{"worker", 1}, {"worker", 2}}, true, 1},
		{"checked-lead", []startSpec{{"reader", 1}, {"holder", 2}}, true, 0},
	}
	for _, tc := range cases {
		for _, cores := range []int{2, 3, 4} {
			o := defaultRunOpts()
			o.compile = compile.Options{Annotate: tc.annotate}
			o.mcfg.Cores = cores
			o.starts = tc.starts
			name := fmt.Sprintf("%s/cores=%d", tc.name, cores)
			fast := assertDispatchEqual(t, name, chunkRaceSrc, o)
			if len(fast.Faults) != tc.faults {
				t.Errorf("%s: faults = %v, want %d", name, fast.Faults, tc.faults)
			}
			if fast.ChunkedInstructions == 0 {
				t.Errorf("%s: no instruction retired in a lockstep chunk", name)
			}
			if tc.annotate && fast.Stats.Traps == 0 {
				t.Errorf("%s: no watchpoint trap, so no checked block was exercised", name)
			}
		}
	}
}

// loopSegSrc has a branch-free loop body whose superblock runs through
// the JMP back into the header, and the header alone reads lim, so a
// segment opened inside the loop reads lim only through the superblock's
// second line. The if/else after the loop gives a superblock through a
// forward JMP.
const loopSegSrc = `
int g;
int h;
int lim = 300;
void worker(int k) {
    int i;
    i = 0;
    while (i < lim) {
        g = g + k;
        i = i + 1;
    }
    if (k == 1) {
        g = g + 1;
    } else {
        g = g - 1;
    }
    h = g + k;
    print(h);
}
`

// TestFastPathSegmentsCoverStep checks that the DPOR segments the fast tier
// records are sound against the reference interpreter's: the same decision
// points, and a summary at least as conservative — a segment that is
// Global under Step is Global under Fast, and otherwise every address Step
// read was read or written under Fast and every address Step wrote was
// written under Fast (block footprints fold in as writes). Segments are
// machine-wide, so the check runs at several core counts although DPOR
// explores one core. loopSegSrc runs at one core, where a decision made
// while recording is carried around the loop and covers the superblock's
// two lines.
func TestFastPathSegmentsCoverStep(t *testing.T) {
	policies := []struct {
		name string
		p    SchedulePolicy
	}{
		{"head", queueHeadPolicy{}},
		{"tail", PolicyFunc(func(p SchedPoint) int { return len(p.Runnable) - 1 })},
	}
	sources := []struct {
		name  string
		src   string
		cores []int
	}{
		{"chunk", chunkRaceSrc, []int{1, 2, 3}},
		{"loop", loopSegSrc, []int{1}},
	}
	o := defaultRunOpts()
	o.compile = compile.Options{}
	o.starts = []startSpec{{"worker", 1}}
	m := newDispatch(t, loopSegSrc, o, DispatchFast)
	var loops, jmps int
	for i := 1; i < len(m.ops); i++ {
		if m.sbs[i].loop {
			loops++
		} else if m.sbs[i].run > m.ops[i].line {
			jmps++
		}
	}
	if loops == 0 || jmps == 0 {
		t.Fatalf("loopSegSrc has %d loop and %d other JMP superblocks, want both", loops, jmps)
	}
	for _, src := range sources {
		for _, pol := range policies {
			for _, cores := range src.cores {
				o := defaultRunOpts()
				o.compile = compile.Options{}
				o.mcfg.Cores = cores
				o.mcfg.Policy = pol.p
				costs := DefaultCosts()
				costs.Quantum = 37
				o.mcfg.Costs = costs
				o.starts = []startSpec{{"worker", 1}, {"worker", 2}, {"worker", 3}}
				name := fmt.Sprintf("%s/%s/cores=%d", src.name, pol.name, cores)
				var segs [2][]Segment
				for i, d := range []DispatchMode{DispatchStep, DispatchFast} {
					m := newDispatch(t, src.src, o, d)
					m.SetSegmentLimit(1 << 20)
					m.Run()
					segs[i] = m.Segments()
				}
				checkSegmentsCover(t, name, segs[0], segs[1])
			}
		}
	}
}

// checkSegmentsCover reports where the fast tier's segments are less
// conservative than the reference interpreter's (see
// TestFastPathSegmentsCoverStep).
func checkSegmentsCover(t *testing.T, name string, step, fast []Segment) {
	t.Helper()
	if len(step) != len(fast) {
		t.Fatalf("%s: %d segments under Step, %d under Fast", name, len(step), len(fast))
	}
	if len(step) < 10 {
		t.Fatalf("%s: only %d segments recorded", name, len(step))
	}
	for i := range step {
		s, f := &step[i], &fast[i]
		if s.Thread != f.Thread {
			t.Errorf("%s: segment %d thread step=%d fast=%d", name, i, s.Thread, f.Thread)
		}
		if f.Global {
			continue
		}
		if s.Global {
			t.Errorf("%s: segment %d Global under Step only", name, i)
			continue
		}
		both := append(append([]hw.AddrRange(nil), f.Reads...), f.Writes...)
		for _, r := range s.Reads {
			if !covered(r, both) {
				t.Errorf("%s: segment %d Step read %v not covered by Fast", name, i, r)
			}
		}
		for _, r := range s.Writes {
			if !covered(r, f.Writes) {
				t.Errorf("%s: segment %d Step write %v not covered by Fast writes", name, i, r)
			}
		}
	}
}

// covered reports whether the union of by contains every address of r.
func covered(r hw.AddrRange, by []hw.AddrRange) bool {
	by = append([]hw.AddrRange(nil), by...)
	sort.Slice(by, func(i, j int) bool { return by[i].Lo < by[j].Lo })
	pos := r.Lo
	for _, b := range by {
		if b.Lo <= pos && pos < b.Hi {
			pos = b.Hi
		}
		if pos >= r.Hi {
			return true
		}
	}
	return pos >= r.Hi
}

// Three-thread contention on two cores under prevention with annotated
// atomic regions: watchpoints arm and clear continually, so the machine
// oscillates between fast windows and legacy demotion. Sweep seeds so
// different interleavings (and timer phases) are all exercised.
func TestDispatchEquivalenceUnderPrevention(t *testing.T) {
	src := `
int shared;
int lk;
int done;
void worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        shared = shared + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 300);
    spawn(worker, 300);
    worker(300);
    while (done < 3) {
        yield();
    }
    print(shared);
}`
	for seed := int64(1); seed <= 5; seed++ {
		o := defaultRunOpts()
		o.mcfg.Seed = seed
		assertDispatchEqual(t, fmt.Sprintf("seed-%d", seed), src, o)
	}
}

// MaxTicks truncation must land on the identical tick in both modes: the
// fast path bounds every window at MaxTicks.
func TestDispatchEquivalenceMaxTicks(t *testing.T) {
	src := `
void main() {
    int i;
    i = 0;
    while (i < 1000000) {
        i = i + 1;
    }
}`
	for _, max := range []uint64{100, 999, 12345} {
		o := defaultRunOpts()
		o.mcfg.MaxTicks = max
		ms, rs := runDispatch(t, src, o, DispatchStep)
		mf, rf := runDispatch(t, src, o, DispatchFast)
		if rs.Reason != "max-ticks" {
			t.Fatalf("max=%d: reason = %q, want max-ticks", max, rs.Reason)
		}
		if rs.Reason != rf.Reason || rs.Ticks != rf.Ticks {
			t.Errorf("max=%d: step (%q, %d) vs fast (%q, %d)",
				max, rs.Reason, rs.Ticks, rf.Reason, rf.Ticks)
		}
		if !reflect.DeepEqual(rs.Stats, rf.Stats) {
			t.Errorf("max=%d: stats differ: step=%+v fast=%+v", max, rs.Stats, rf.Stats)
		}
		if ms.Thread(0).Regs != mf.Thread(0).Regs {
			t.Errorf("max=%d: thread registers differ at truncation point", max)
		}
	}
}

// A watchpoint-free single-threaded run should spend nearly all its
// instructions on the fast path.
func TestFastPathResidency(t *testing.T) {
	src := `
void main() {
    int i;
    i = 0;
    while (i < 50000) {
        i = i + 1;
    }
}`
	o := defaultRunOpts()
	o.compile = compile.Options{}
	o.annotate = false
	_, res := runDispatch(t, src, o, DispatchFast)
	if res.Reason != "completed" {
		t.Fatalf("reason = %q", res.Reason)
	}
	if res.FastInstructions == 0 || res.FastWindows == 0 {
		t.Fatalf("fast path never engaged: instrs=%d windows=%d", res.FastInstructions, res.FastWindows)
	}
	resid := float64(res.FastInstructions) / float64(res.Stats.Instructions)
	if resid < 0.9 {
		t.Errorf("fast-path residency = %.1f%% (%d/%d), want >= 90%%",
			100*resid, res.FastInstructions, res.Stats.Instructions)
	}
}

// The watchpoint-aware dispatcher must keep prevention-mode runs on the
// fast path: armed watchpoints no longer demote whole windows, only the
// blocks whose footprint actually overlaps them run checked. This is the
// tentpole regression test for the residency collapse (1.2% NSS / 0.0% VLC
// before footprints).
func TestFastPathResidencyUnderPrevention(t *testing.T) {
	src := `
int a;
int b;
int c;
int lk;
int done;
void finish() {
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void worker_b(int n) {
    int i;
    i = 0;
    while (i < n) {
        b = b + 1;
        i = i + 1;
    }
    finish();
}
void worker_c(int n) {
    int i;
    i = 0;
    while (i < n) {
        c = c + 1;
        i = i + 1;
    }
    finish();
}
void main() {
    int i;
    spawn(worker_b, 2000);
    spawn(worker_c, 2000);
    i = 0;
    while (i < 2000) {
        a = a + 1;
        i = i + 1;
    }
    finish();
    while (done < 3) {
        yield();
    }
    print(a + b + c);
}`
	o := defaultRunOpts()
	o.kcfg.Opt = kernel.OptOptimized
	o.mcfg.MaxTicks = 50_000_000
	_, res := runDispatch(t, src, o, DispatchFast)
	if res.Reason != "completed" {
		t.Fatalf("reason = %q", res.Reason)
	}
	if res.Stats.Begins == 0 {
		t.Fatal("workload armed no watchpoints; residency under prevention not exercised")
	}
	resid := float64(res.FastInstructions) / float64(res.Stats.Instructions)
	if resid < 0.8 {
		t.Errorf("prevention-mode fast residency = %.1f%% (%d/%d), want >= 80%%",
			100*resid, res.FastInstructions, res.Stats.Instructions)
	}
	// Counter plumbing: a multi-quantum run always hits timer edges, and
	// the counters must surface on the Result.
	if res.Demotions.TimerEdge == 0 {
		t.Errorf("Demotions.TimerEdge = 0 over %d ticks, want > 0", res.Ticks)
	}

	// The legacy stepper records no demotions at all.
	_, rs := runDispatch(t, src, o, DispatchStep)
	if rs.Demotions != (Demotions{}) {
		t.Errorf("DispatchStep recorded demotions: %+v", rs.Demotions)
	}
}

// A schedule policy keeps the default tier, DispatchFast, on the fast
// path: decision points only occur at scheduling boundaries, which no
// superstep window spans.
func TestPolicyKeepsFastPath(t *testing.T) {
	src := `
int x;
int lk;
int done;
void worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        x = x + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 1000);
    worker(1000);
    while (done < 2) {
        yield();
    }
}`
	o := defaultRunOpts()
	o.compile = compile.Options{}

	rec := NewRecorder(queueHeadPolicy{})
	bin := buildSrc(t, src, o.compile)
	k := kernel.New(o.kcfg, nil, nil, nil)
	cfg := o.mcfg
	cfg.Policy = rec
	m, err := New(bin, k, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.FastInstructions == 0 {
		t.Error("DispatchFast with a policy retired no fast instructions")
	}
	if len(rec.Chosen()) == 0 {
		t.Error("policy was never consulted")
	}
}

// queueHeadPolicy always picks the queue head (the non-deviating choice).
type queueHeadPolicy struct{}

func (queueHeadPolicy) Pick(SchedPoint) int { return 0 }

// Op-stream sanity on a compiled binary: line length zero at SYS/HLT and
// non-starts, positive elsewhere, and 1 on control flow; every start maps
// to the op describing it. The superblock run is the line, plus the
// target's line where the line ends in a JMP to a fast-enterable target.
func TestBlockLenTable(t *testing.T) {
	src := `
void main() {
    int i;
    i = 0;
    while (i < 3) {
        i = i + 1;
    }
    print(i);
}`
	o := defaultRunOpts()
	m, _ := runDispatch(t, src, o, DispatchStep)
	if len(m.opAt) != len(m.decoded) {
		t.Fatalf("opAt len %d != decoded len %d", len(m.opAt), len(m.decoded))
	}
	if len(m.sbs) != len(m.ops) {
		t.Fatalf("superblock table len %d != op count %d", len(m.sbs), len(m.ops))
	}
	starts, superblocks := 0, 0
	for pc := range m.decoded {
		in := m.decoded[pc]
		bl := m.blockLen(uint32(pc))
		if in.Len == 0 {
			if bl != 0 {
				t.Fatalf("non-start pc %#x has blockLen %d", pc, bl)
			}
			continue
		}
		starts++
		idx := m.opAt[pc]
		op := m.ops[idx]
		if op.pc != uint32(pc) || op.next != uint32(pc)+uint32(in.Len) {
			t.Fatalf("pc %#x maps to op at %#x (next %#x)", pc, op.pc, op.next)
		}
		switch {
		case in.Op.IsKernelBoundary():
			if bl != 0 {
				t.Errorf("kernel-boundary op at %#x has blockLen %d, want 0", pc, bl)
			}
		case in.Op.IsControlFlow():
			if bl != 1 {
				t.Errorf("control-flow op at %#x has blockLen %d, want 1", pc, bl)
			}
		default:
			if bl == 0 {
				t.Errorf("straight-line op %v at %#x has blockLen 0", in.Op, pc)
			}
		}
		want := op.line
		if op.line > 0 {
			if end := m.ops[idx+uint32(op.line)-1]; end.kind == okJMP && m.ops[end.tidx].line > 0 {
				want += m.ops[end.tidx].line
				superblocks++
			}
		}
		if run := m.sbs[idx].run; run != want {
			t.Errorf("op at %#x: run %d, want %d (line %d)", pc, run, want, op.line)
		}
	}
	if starts == 0 {
		t.Fatal("no instruction starts found")
	}
	if superblocks == 0 {
		t.Fatal("no superblock found: the loop body's line ends in a JMP to its header")
	}
}

// The bounded-index regression: a static-bound loop over a fixed array is
// exactly the shape the value-range analysis must bound, so under
// prevention with armed watchpoints its blocks are checked (or clean) but
// never demoted as Unbounded.
func TestFastPathBoundedIndexNoUnbounded(t *testing.T) {
	src := `
int arr[8];
int lk;
int done;
void worker(int id) {
    int aj;
    lock(lk);
    aj = 0;
    while (aj < 8) {
        arr[aj] = arr[aj] + id;
        aj = aj + 1;
    }
    unlock(lk);
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 1);
    spawn(worker, 2);
    worker(3);
    while (done < 3) {
        yield();
    }
    print(arr[0] + arr[7]);
}`
	o := defaultRunOpts()
	o.kcfg.Opt = kernel.OptOptimized
	o.kcfg.NumWatchpoints = 16
	o.mcfg.MaxTicks = 50_000_000
	_, res := runDispatch(t, src, o, DispatchFast)
	if res.Reason != "completed" {
		t.Fatalf("reason = %q", res.Reason)
	}
	if res.Stats.Begins == 0 {
		t.Fatal("no atomic regions began; the bounded-index shape was not exercised under prevention")
	}
	if res.Demotions.Unbounded != 0 {
		t.Errorf("Demotions.Unbounded = %d on a bounded-index program, want 0 (demotions: %+v)",
			res.Demotions.Unbounded, res.Demotions)
	}
}

// Checked loops: the scanner's loop over a watched array is decided
// checked and its decision carried across back edges, while the watcher's
// atomic regions keep re-arming. Step and Fast must agree bit for bit at 1
// and 2 cores, and the run must make checked decisions, or nothing here is
// exercised.
func TestFastPathCheckedLoops(t *testing.T) {
	src := `
int s1;
int arr[4];
int lk;
int done;
void watcher(int n) {
    int i;
    i = 0;
    while (i < n) {
        s1 = s1 + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void scanner(int cap) {
    int i;
    int idx;
    int t;
    i = 0;
    while (i < 30000) {
        idx = i % cap;
        t = arr[idx];
        arr[idx] = t + 1;
        if (idx > i) {
            t = 0;
        }
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(watcher, 3000);
    spawn(scanner, 4);
    while (done < 2) {
        yield();
    }
    print(s1 + arr[0]);
}`
	for _, cores := range []int{1, 2} {
		name := fmt.Sprintf("cores=%d", cores)
		o := defaultRunOpts()
		o.kcfg.Opt = kernel.OptOptimized
		o.kcfg.NumWatchpoints = 16
		o.mcfg.Cores = cores
		o.mcfg.MaxTicks = 50_000_000
		res := assertDispatchEqual(t, name, src, o)
		if res.Reason != "completed" {
			t.Fatalf("%s: reason = %q", name, res.Reason)
		}
		if res.Stats.Begins == 0 {
			t.Fatalf("%s: no atomic regions began; checked dispatch was not exercised", name)
		}
		if d := res.Demotions; d.Unbounded+d.ArmedOverlap == 0 || d.CheckedOverlap != 0 {
			t.Errorf("%s: demotions %+v, want checked decisions and no inherited ones", name, d)
		}
	}
}

// TestFastPathBlockCheckedDefinition holds blockChecked to its definition
// on random register files and footprints of all three evaluation classes:
// a bounded footprint is checked iff an armed register that is not exempt
// for the thread overlaps one of its evaluated intervals, an unbounded or
// escaping one iff any such register exists, and a checked decision bumps
// Unbounded for an unbounded footprint and ArmedOverlap otherwise.
func TestFastPathBlockCheckedDefinition(t *testing.T) {
	m := newDispatch(t, "void main() { }", defaultRunOpts(), DispatchFast)
	c := m.cores[0]
	rng := rand.New(rand.NewSource(1))
	sizes := []uint8{1, 2, 4, 8}
	addr := func() uint32 { return uint32(rng.Intn(int(compile.MemSize) - 8)) }
	var seen [3][2]int // decisions by class and outcome
	check := func(name string, th *Thread, f isa.Footprint, wantClass int) {
		t.Helper()
		if class := m.evalFootprint(c, th, &f); class != wantClass {
			t.Fatalf("%s: footprint %+v evaluates to class %d, want %d", name, f, class, wantClass)
		}
		want := false
		for _, wp := range c.WP.WPs {
			if !wp.Armed || wp.LocalOf == th.ID {
				continue
			}
			if wantClass != fpBounded {
				want = true
			}
			for _, r := range c.fpRanges[:c.fpN] {
				want = want || (r.Lo < wp.Addr+uint32(wp.Size) && wp.Addr < r.Hi)
			}
		}
		before := m.tel.Demotions
		got := m.blockChecked(c, th, wantClass)
		after := before
		if got && wantClass == fpUnbounded {
			after.Unbounded++
		} else if got {
			after.ArmedOverlap++
		}
		if got != want || m.tel.Demotions != after {
			t.Fatalf("%s: blockChecked = %v, register scan says %v; demotions %+v -> %+v\nregisters %+v\nranges %v",
				name, got, want, before, m.tel.Demotions, c.WP.WPs, c.fpRanges[:c.fpN])
		}
		seen[wantClass][b2i(got)]++
	}

	for i := range 5000 {
		th := &Thread{ID: rng.Intn(3)}
		var f isa.Footprint
		class := rng.Intn(3)
		switch class {
		case fpUnbounded:
			f.Unbounded = true
		case fpEscapes:
			// An SP interval that reaches below address 0.
			th.Regs[isa.RegSP] = int64(rng.Intn(64))
			f.SPLo, f.SPHi = -64-int64(rng.Intn(64)), int64(rng.Intn(16))
		case fpBounded:
			if rng.Intn(4) != 0 {
				f.AbsLo = addr()
				f.AbsHi = f.AbsLo + uint32(1+rng.Intn(64))
			}
			th.Regs[isa.RegSP] = int64(compile.MemSize/2 + uint32(rng.Intn(int(compile.MemSize/2)-256)))
			th.Regs[isa.RegFP] = th.Regs[isa.RegSP] + int64(rng.Intn(128))
			if rng.Intn(4) != 0 {
				f.SPLo = -int64(rng.Intn(128))
				f.SPHi = f.SPLo + int64(rng.Intn(64))
			}
			if rng.Intn(4) != 0 {
				f.FPLo = -int64(rng.Intn(128))
				f.FPHi = f.FPLo + int64(rng.Intn(64))
			}
		}
		// Registers anywhere in memory, or near the footprint's own
		// addresses so that overlaps and near misses are common.
		near := []uint32{uint32(th.Regs[isa.RegSP]), uint32(th.Regs[isa.RegFP]), f.AbsLo, f.AbsHi}
		c.WP = hw.NewRegisterFile(1 + rng.Intn(8))
		for j := range c.WP.WPs {
			a := addr()
			if rng.Intn(2) == 0 {
				a = uint32(max(0, min(int64(compile.MemSize)-8, int64(near[rng.Intn(len(near))])+int64(rng.Intn(257)-128))))
			}
			c.WP.Set(j, hw.Watchpoint{
				Addr: a, Size: sizes[rng.Intn(4)], Types: hw.AccessType(1 + rng.Intn(3)),
				Armed: rng.Intn(3) != 0, Owner: rng.Intn(3), LocalOf: rng.Intn(4) - 1,
			})
		}
		check(fmt.Sprintf("case %d", i), th, f, class)
	}
	for class, n := range seen {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("class %d: %d unchecked and %d checked decisions; want both outcomes", class, n[0], n[1])
		}
	}

	// Every armed register exempt for the thread: an unbounded footprint is
	// unchecked and counts nothing.
	th := &Thread{ID: 2}
	c.WP = hw.NewRegisterFile(4)
	for j := range c.WP.WPs {
		c.WP.Set(j, hw.Watchpoint{Addr: addr(), Size: 8, Types: hw.ReadWrite, Armed: true, Owner: 2, LocalOf: 2})
	}
	check("all exempt", th, isa.Footprint{Unbounded: true}, fpUnbounded)
}
