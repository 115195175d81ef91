package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/kernel"
)

// schedSrc is a two-racer program with enough cross-thread interaction that
// different schedules genuinely produce different final states.
const schedSrc = `
int counter;
int done;
int lk;
void work(int id) {
    int i;
    int c;
    i = 0;
    while (i < 20) {
        c = counter;
        counter = c + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(work, 1);
    spawn(work, 2);
    while (done < 2) {
        yield();
    }
}
`

// runWithPolicy runs schedSrc single-core with a short quantum so the policy
// is consulted at many real decision points.
func runWithPolicy(t *testing.T, policy SchedulePolicy) (*Machine, *Result) {
	t.Helper()
	o := defaultRunOpts()
	o.mcfg.Cores = 1
	o.mcfg.Policy = policy
	costs := DefaultCosts()
	costs.Quantum = 13
	o.mcfg.Costs = costs
	m, res := run(t, schedSrc, o)
	if res.Reason != "completed" {
		t.Fatalf("run did not complete: %s", res.Reason)
	}
	return m, res
}

// readGlobal reads the final value of a named global from machine memory.
func readGlobal(t *testing.T, m *Machine, name string) int64 {
	t.Helper()
	addr, ok := m.Bin.Globals[name]
	if !ok {
		t.Fatalf("no global %q", name)
	}
	return int64(m.Load(addr, 8))
}

// TestRecorderReplayerRoundTrip: a schedule recorded from a random policy
// replays with zero mismatches and reaches the identical final state.
func TestRecorderReplayerRoundTrip(t *testing.T) {
	var picked []int
	rec := NewRecorder(PolicyFunc(func(p SchedPoint) int {
		if len(p.Runnable) < 2 {
			t.Fatalf("decision %d had %d runnable threads; policies are only consulted on real choices",
				p.Seq, len(p.Runnable))
		}
		i := rand.New(rand.NewSource(int64(p.Seq) * 31)).Intn(len(p.Runnable))
		picked = append(picked, p.Runnable[i])
		return i
	}))
	om, orig := runWithPolicy(t, rec)
	if len(rec.Chosen()) == 0 {
		t.Fatal("recorder saw no decision points")
	}
	if !reflect.DeepEqual(rec.Chosen(), picked) {
		t.Fatalf("recorded %v, the policy picked %v", rec.Chosen(), picked)
	}

	rep := NewReplayer(rec.Chosen())
	rm, replayed := runWithPolicy(t, rep)
	if rep.Mismatches() != 0 {
		t.Errorf("replay of a faithful trace had %d mismatches", rep.Mismatches())
	}
	if rep.Consumed() != len(rec.Chosen()) {
		t.Errorf("replay consumed %d decisions, recorder made %d", rep.Consumed(), len(rec.Chosen()))
	}
	if orig.Ticks != replayed.Ticks {
		t.Errorf("replay took %d ticks, original %d", replayed.Ticks, orig.Ticks)
	}
	for _, g := range []string{"counter", "done"} {
		if ov, rv := readGlobal(t, om, g), readGlobal(t, rm, g); ov != rv {
			t.Errorf("replay finished with %s=%d, original %d", g, rv, ov)
		}
	}
}

// TestRecorderClampsOutOfRange: an inner policy returning an out-of-range
// index is recorded as the default choice 0, never an invalid pick.
func TestRecorderClampsOutOfRange(t *testing.T) {
	var heads []int
	rec := NewRecorder(PolicyFunc(func(p SchedPoint) int {
		heads = append(heads, p.Runnable[0])
		return len(p.Runnable) + 3
	}))
	runWithPolicy(t, rec)
	if len(heads) == 0 || !reflect.DeepEqual(rec.Chosen(), heads) {
		t.Fatalf("out-of-range picks recorded %v, want the default heads %v", rec.Chosen(), heads)
	}
}

// TestReplayerMismatchFallback: replaying against a different program state
// (an empty trace) falls back to index 0 and counts every decision as a
// mismatch instead of failing.
func TestReplayerMismatchFallback(t *testing.T) {
	rep := NewReplayer(nil)
	runWithPolicy(t, rep)
	if rep.Mismatches() == 0 {
		t.Error("empty trace replayed a multi-decision run with 0 mismatches")
	}
	// A recorded thread that is never runnable also falls back and counts.
	rep2 := NewReplayer([]int{999, 999, 999})
	runWithPolicy(t, rep2)
	if rep2.Mismatches() < 3 {
		t.Errorf("unrunnable-thread trace had %d mismatches, want >= 3", rep2.Mismatches())
	}
}

// TestPolicySeqMonotonic: decision sequence numbers increase from 0.
func TestPolicySeqMonotonic(t *testing.T) {
	var seqs []uint64
	runWithPolicy(t, PolicyFunc(func(p SchedPoint) int {
		seqs = append(seqs, p.Seq)
		return 0
	}))
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("decision %d had Seq=%d", i, s)
		}
	}
}

// TestSuspendResumeAllocFree: a Suspend/Resume pair allocates nothing, even
// for a thread whose PC would allocate if anything on the path boxed it.
func TestSuspendResumeAllocFree(t *testing.T) {
	bin := buildSrc(t, "void main() { int x; x = 1; }", compile.Options{})
	k := newTestKernel(defaultRunOpts())
	m, err := New(bin, k, Config{Cores: 1, Seed: 1, MaxTicks: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tid, err := m.Start("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Boxing a value below 256 reuses a static cell; a PC beyond that range
	// allocates when boxed.
	m.threads[tid].PC = 0x12345
	if allocs := testing.AllocsPerRun(100, func() {
		m.Suspend(tid, kernel.BlockLock)
		m.Resume(tid)
	}); allocs != 0 {
		t.Fatalf("Suspend/Resume pair allocates %.1f times, want 0", allocs)
	}
}
