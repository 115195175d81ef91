// Package harness regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate: the performance overheads of
// Table 3, the kernel-crossing counts of Table 4, the request latencies of
// Table 5, the bug-detection times of Table 6, the false-positive and trap
// rates of Table 7, the missed-AR rates of Tables 8 and 9, and the
// training curves of Figure 7. Absolute numbers are virtual-clock values;
// the shapes — who wins, orderings across optimization levels, where the
// crossovers fall — are the reproduction targets (see EXPERIMENTS.md).
package harness

import "kivati/internal/core"

// Time scaling. The virtual clock ticks once per instruction cycle; we
// interpret one tick as one microsecond of paper time, which puts the
// machine at 1 MIPS per core — slower than the paper's 2.13 GHz Core 2 but
// irrelevant for relative measurements.
const (
	// TicksPerMs converts the paper's millisecond-scale parameters
	// (10 ms suspension timeout, 20/50 ms bug-finding pauses).
	TicksPerMs = 1_000

	// TimeoutTicks is the paper's 10 ms suspension timeout.
	TimeoutTicks = 10 * TicksPerMs

	// RunCapTicks bounds each table run; DetectionCapTicks replaces it for
	// the Table 6 bug hunts.
	RunCapTicks = 400_000_000

	// Pause20 and Pause50 are the two bug-finding pause lengths of
	// Table 6.
	Pause20 = 20 * TicksPerMs
	Pause50 = 50 * TicksPerMs

	// PauseEvery samples bug-finding pauses at one per N monitored
	// begin_atomics (see kernel.Config.PauseEvery: the paper's measured
	// 2–3% bug-finding overhead implies pauses are far rarer than
	// annotations). This is the production/beta-test rate used by the
	// Table 3/5 performance measurements.
	PauseEvery = 300

	// BugPauseEvery is the aggressive sampling the Table 6 bug hunts use:
	// in a targeted reproduction run nearly every begin_atomic belongs to
	// the suspect code, so pausing often maximizes the amplification.
	BugPauseEvery = 4

	// PaperSecondTicks maps one reported "paper second" onto virtual
	// ticks for Table 6's mm:ss columns: the bug-detection runs execute
	// scaled-down trigger workloads, so a scaled second keeps the
	// printed numbers in the paper's familiar range.
	PaperSecondTicks = 5_000

	// DetectionCapTicks is the 90-minute Table 6 cap in scaled time.
	DetectionCapTicks = 90 * 60 * PaperSecondTicks // 27M ticks
)

// Options configure a harness run.
type Options struct {
	// Scale multiplies workload iteration counts (1.0 = full benchmark;
	// tests and quick benches use less).
	Scale float64
	// Seed selects the interleaving; table runners derive per-run seeds
	// from it.
	Seed int64
	// Parallelism bounds the worker pool that fans out the independent VM
	// runs inside each table runner. 0 means GOMAXPROCS; 1 forces the
	// serial order. Results are identical at every setting: each run owns
	// its machine and RNG, results slot by index, and the first error (in
	// job order) wins.
	Parallelism int
}

func (o Options) defaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// baseConfig is the run configuration every table starts from: the paper's
// 2 cores and 4 watchpoints (core.RunConfig's defaults), the 10 ms
// suspension timeout and the per-run tick cap, under one seed.
func baseConfig(seed int64) core.RunConfig {
	return core.RunConfig{Seed: seed, MaxTicks: RunCapTicks, TimeoutTicks: TimeoutTicks}
}
