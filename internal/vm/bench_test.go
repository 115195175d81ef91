package vm

import (
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/kernel"
	"kivati/internal/minic"
)

// Microbenchmarks for the per-decision cost of the scheduler fast path.
//
// Both run the same two-compute-thread program on one core with a short
// quantum, under a schedule policy that makes every quantum edge a real
// decision, so every quantum passes through the Run loop's timer
// interrupt, pick and window admission. BenchmarkContextSwitch always picks
// the run-queue head — the thread that did NOT just run — so every decision
// pays the full context switch (preempt, pick, register-file re-arm, fresh
// block decision). BenchmarkDecisionPoint always picks the tail — the
// thread that was just preempted — so nearly every decision is a same-pick
// continuation: the next window's admission keeps the open block decision.
// The gap between the two ns/decision numbers is the cost the continuation
// amortizes away.

func buildBenchBinary(b *testing.B, src string) *compile.Binary {
	b.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		b.Fatalf("Parse: %v", err)
	}
	ap, err := annotate.Annotate(prog)
	if err != nil {
		b.Fatalf("Annotate: %v", err)
	}
	bin, err := compile.Compile(ap, compile.Options{Annotate: true})
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	return bin
}

const benchComputeSrc = `
int sink;
void worker(int n) {
    int i;
    int acc;
    i = 0;
    acc = 0;
    while (i < n) {
        acc = acc + i * 3;
        i = i + 1;
    }
    sink = sink + acc;
}
void main() {
    spawn(worker, 2000000);
    worker(2000000);
}`

// runDecisionBench runs the two-thread compute program to MaxTicks on one
// core under pick, and reports per-decision cost plus the fraction of
// decisions that continued the previous pick.
func runDecisionBench(b *testing.B, pick PolicyFunc, quantum uint64) {
	b.Helper()
	bin := buildBenchBinary(b, benchComputeSrc)
	var decisions, continues uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := kernel.New(kernel.Config{
			Mode:           kernel.Prevention,
			Opt:            kernel.OptBase,
			NumWatchpoints: 4,
			TimeoutTicks:   10000,
		}, nil, nil, nil)
		m, err := New(bin, k, Config{
			Cores:    1,
			Seed:     1,
			MaxTicks: 2_000_000,
			Dispatch: DispatchFast,
			Policy:   pick,
		})
		if err != nil {
			b.Fatalf("vm.New: %v", err)
		}
		if _, err := m.Start("main", 0); err != nil {
			b.Fatalf("Start: %v", err)
		}
		m.cfg.Costs.Quantum = quantum
		for _, c := range m.cores {
			c.NextTimer = quantum
		}
		b.StartTimer()
		res := m.Run()
		b.StopTimer()
		if len(res.Faults) > 0 {
			b.Fatalf("fault: %s", res.Faults[0])
		}
		decisions += res.Decisions
		continues += res.SamePickContinues
		b.StartTimer()
	}
	b.StopTimer()
	if decisions > 0 {
		ns := uint64(b.Elapsed().Nanoseconds())
		b.ReportMetric(float64(ns)/float64(decisions), "ns/decision")
		b.ReportMetric(float64(continues)/float64(decisions), "continue-ratio")
	}
}

// BenchmarkContextSwitch: every decision picks the run-queue head — the
// other thread — so every quantum edge is a full context switch.
func BenchmarkContextSwitch(b *testing.B) {
	runDecisionBench(b, func(SchedPoint) int { return 0 }, 200)
}

// BenchmarkDecisionPoint: every decision picks the run-queue tail — the
// thread just preempted — so decisions reduce to same-pick continuations.
func BenchmarkDecisionPoint(b *testing.B) {
	runDecisionBench(b, func(p SchedPoint) int { return len(p.Runnable) - 1 }, 200)
}

// Microbenchmarks for copy-on-write snapshot cost. Each iteration writes
// one page and then captures or restores, so ns/op and B/op are the cost
// of a capture or restore after a run that touched a single page — the
// per-page overhead the branch-point DFS pays many times per schedule.

// snapSink keeps the captured snapshots observable to the compiler.
var snapSink *Snapshot

// BenchmarkSnapshotCapture: store to one page, capture.
func BenchmarkSnapshotCapture(b *testing.B) {
	m := newSnapMachine(b, headRunnable)
	addr := m.Bin.Globals["counter"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(addr, 8, uint64(i))
		s, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		snapSink = s
	}
}

// BenchmarkSnapshotRestore: store to one page, restore the capture taken
// before the loop.
func BenchmarkSnapshotRestore(b *testing.B) {
	m := newSnapMachine(b, headRunnable)
	addr := m.Bin.Globals["counter"]
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(addr, 8, uint64(i)+1)
		m.Restore(snap)
	}
}
