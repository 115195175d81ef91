package vm

import (
	"reflect"
	"strings"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/kernel"
)

// snapSrc is a two-worker racy counter: enough scheduler decision points
// and watchpoint churn to make a mid-run capture nontrivial.
const snapSrc = `
int counter;
int lk;
int done;
void worker(int id) {
    int i;
    i = 0;
    while (i < 20) {
        counter = counter + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 1);
    spawn(worker, 2);
    while (done < 2) {
        yield();
    }
    print(counter);
}
`

// newSnapMachine builds a snapshot-capable prevention-mode machine with the
// given schedule policy and main started, but not yet run.
func newSnapMachine(t testing.TB, policy SchedulePolicy) *Machine {
	t.Helper()
	return newSnapMachineOn(t, buildSrc(t, snapSrc, compileOptsAnnotated()), policy)
}

// newSnapMachineOn is newSnapMachine on an already-built binary.
func newSnapMachineOn(t testing.TB, bin *compile.Binary, policy SchedulePolicy) *Machine {
	t.Helper()
	k := kernel.New(kernel.Config{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		NumWatchpoints: 4,
		TimeoutTicks:   10000,
	}, nil, nil, nil)
	m, err := New(bin, k, Config{
		Cores:    1,
		Seed:     1,
		MaxTicks: 5_000_000,
		Dispatch: DispatchStep,
		Policy:   policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// headRunnable is a deterministic stateless policy: always run the head of
// the queue (a yielding thread re-enters at the back, so this round-robins
// rather than re-picking the yielder). Stateless matters for the
// cross-machine test — a restored machine with the same policy continues
// identically.
var headRunnable = PolicyFunc(func(p SchedPoint) int { return 0 })

// TestSnapshotRestoreMemHash is the byte-identity quick-check: capture,
// run the machine to completion (dirtying memory), restore, and require
// the memory image hash to match the capture-time hash exactly.
func TestSnapshotRestoreMemHash(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := m.MemHash()

	res := m.Run()
	if res.Reason != "completed" {
		t.Fatalf("reason = %q", res.Reason)
	}
	if m.MemHash() == before {
		t.Fatal("run did not change memory; the restore check is vacuous")
	}

	m.Restore(snap)
	if got := m.MemHash(); got != before {
		t.Fatalf("restored memory hash %#x, capture-time hash %#x", got, before)
	}
}

// TestSnapshotRerunIdentical captures at a mid-run decision point, lets the
// run finish, restores, and re-runs: the second run must be observably
// identical — same output, ticks, stop reason, and final memory image.
func TestSnapshotRerunIdentical(t *testing.T) {
	var snap *Snapshot
	m := newSnapMachine(t, nil)
	m.SetPolicy(PolicyFunc(func(p SchedPoint) int {
		if p.Seq == 3 && snap == nil {
			s, err := m.Snapshot()
			if err != nil {
				t.Errorf("mid-run snapshot: %v", err)
			}
			snap = s
		}
		return headRunnable(p)
	}))
	res1 := m.Run()
	if snap == nil {
		t.Fatal("run never reached decision 3; capture point not exercised")
	}
	hash1 := m.MemHash()

	m.Restore(snap)
	res2 := m.Run()
	if res1.Reason != res2.Reason || res1.Ticks != res2.Ticks {
		t.Errorf("(reason, ticks) first=(%q, %d) rerun=(%q, %d)",
			res1.Reason, res1.Ticks, res2.Reason, res2.Ticks)
	}
	if !reflect.DeepEqual(res1.Output, res2.Output) {
		t.Errorf("output differs: first=%v rerun=%v", res1.Output, res2.Output)
	}
	if !reflect.DeepEqual(res1.Stats, res2.Stats) {
		t.Errorf("kernel stats differ:\n first=%+v\n rerun=%+v", res1.Stats, res2.Stats)
	}
	if hash2 := m.MemHash(); hash2 != hash1 {
		t.Errorf("final memory image differs: first=%#x rerun=%#x", hash1, hash2)
	}
}

// TestSnapshotCrossMachine restores a capture into a different machine
// built from the same binary and configuration: the continuation must be
// identical to the source machine's.
func TestSnapshotCrossMachine(t *testing.T) {
	var snap *Snapshot
	a := newSnapMachine(t, nil) // policy set below so the closure can see the machine
	a.SetPolicy(PolicyFunc(func(p SchedPoint) int {
		if p.Seq == 2 && snap == nil {
			s, err := a.Snapshot()
			if err != nil {
				t.Errorf("mid-run snapshot: %v", err)
			}
			snap = s
		}
		return headRunnable(p)
	}))
	resA := a.Run()
	if snap == nil {
		t.Fatal("run never reached decision 2")
	}

	b := newSnapMachine(t, headRunnable)
	b.Restore(snap)
	resB := b.Run()
	if resA.Reason != resB.Reason || resA.Ticks != resB.Ticks {
		t.Errorf("(reason, ticks) source=(%q, %d) foreign=(%q, %d)",
			resA.Reason, resA.Ticks, resB.Reason, resB.Ticks)
	}
	if !reflect.DeepEqual(resA.Output, resB.Output) {
		t.Errorf("output differs: source=%v foreign=%v", resA.Output, resB.Output)
	}
	if !reflect.DeepEqual(resA.Stats, resB.Stats) {
		t.Errorf("kernel stats differ:\n source=%+v\n foreign=%+v", resA.Stats, resB.Stats)
	}
	if a.MemHash() != b.MemHash() {
		t.Errorf("final memory image differs: source=%#x foreign=%#x", a.MemHash(), b.MemHash())
	}
}

// TestSnapshotRejectsPendingClosure pins the capture precondition: closure
// events cannot be serialized, so Snapshot must refuse while one is queued.
func TestSnapshotRejectsPendingClosure(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	m.After(5, func() {})
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with a pending closure event")
	}
}

// TestSnapshotRejectsRequests pins that a snapshot carries no request
// state: a machine with a request generator refuses capture, naming the
// field, instead of capturing a snapshot that would lose its arrivals.
func TestSnapshotRejectsRequests(t *testing.T) {
	k := kernel.New(kernel.Config{Mode: kernel.Prevention, NumWatchpoints: 4}, nil, nil, nil)
	m, err := New(buildSrc(t, snapSrc, compileOptsAnnotated()), k, Config{
		Cores:    1,
		Seed:     1,
		Requests: &RequestConfig{MeanInterarrival: 500, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	_, err = m.Snapshot()
	if err == nil || !strings.Contains(err.Error(), "Requests") {
		t.Fatalf("Snapshot of a request-generating machine: err = %v, want one naming Requests", err)
	}
}

// TestRestoreAllocFree pins that Restore reuses the machine's storage:
// rewinding a dirtied page allocates nothing. The kernel's
// TestRestoreInsideARAllocFree covers restores with atomic regions active.
func TestRestoreAllocFree(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	addr := m.Bin.Globals["counter"]
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	i := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		i++
		m.Store(addr, 8, i)
		m.Restore(snap)
	}); allocs != 0 {
		t.Fatalf("Restore allocates %.1f times, want 0", allocs)
	}
}
