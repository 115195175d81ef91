package main

// metric describes one reported metric. kind says how two runs compare:
// "wall" and "host" values are measured on the host and noisy, "virtual"
// (simulated clock) and "count" values are deterministic for a seed and
// must match exactly. BENCHMARK.json repeats name, unit and direction;
// TestSpecMatchesCatalogue keeps the two in step.
type metric struct {
	name, unit, better, kind string
}

// endToEnd metrics are what a user of the job sees; every workload reports
// all of them with -trace 0.
var endToEnd = []metric{
	{"setup_s", "s", "lower", "wall"},
	{"items_per_s", "1/s", "higher", "wall"},
	{"job_p50_ms", "ms", "lower", "wall"},
	{"job_p90_ms", "ms", "lower", "wall"},
}

// perLayer metrics split the jobs by layer; every workload reports all of
// them with -trace 1, as 0 where it makes no call into that layer. Times
// are medians per call; counts come from set-up and the first pass.
var perLayer = []metric{
	{"minic.parse_us", "us", "lower", "wall"},
	{"annotate.annotate_us.prototype", "us", "lower", "wall"},
	{"annotate.annotate_us.lockset", "us", "lower", "wall"},
	{"annotate.ars", "count", "lower", "count"},
	{"compile.compile_us", "us", "lower", "wall"},
	{"valrange.footprints_us", "us", "lower", "wall"},
	{"compile.code_bytes", "bytes", "lower", "count"},
	{"compile.unbounded_blocks", "count", "lower", "count"},
	{"corpusgen.generate_ms", "ms", "lower", "wall"},
	{"core.new_session_ms", "ms", "lower", "wall"},
	{"vm.new_ms", "ms", "lower", "wall"},
	{"vm.snapshot_us", "us", "lower", "wall"},
	{"vm.restore_us", "us", "lower", "wall"},
	{"vm.run_us.vanilla", "us", "lower", "wall"},
	{"vm.run_us.prevention", "us", "lower", "wall"},
	{"vm.minstr_per_s", "Minstr/s", "higher", "wall"},
	{"vm.instructions", "count", "lower", "count"},
	{"vm.fast_residency_pct", "%", "higher", "virtual"},
	{"vm.fast_windows", "count", "lower", "count"},
	{"vm.demotions.armed_overlap", "count", "lower", "count"},
	{"vm.demotions.unbounded", "count", "lower", "count"},
	{"vm.demotions.checked_overlap", "count", "lower", "count"},
	{"vm.demotions.timer_edge", "count", "lower", "count"},
	{"vm.demotions.would_trap", "count", "lower", "count"},
	{"vm.decisions", "count", "lower", "count"},
	{"vm.same_pick_continues", "count", "higher", "count"},
	{"hw.delta_arms", "count", "higher", "count"},
	{"hw.full_arms", "count", "lower", "count"},
	{"kernel.crossings", "count", "lower", "count"},
	{"kernel.traps", "count", "lower", "count"},
	{"kernel.user_handled", "count", "higher", "count"},
	{"kernel.suspensions", "count", "lower", "count"},
	{"kernel.timeouts", "count", "lower", "count"},
	{"kernel.missed_ars", "count", "lower", "count"},
	{"sim.ticks.vanilla", "ticks", "lower", "virtual"},
	{"sim.ticks.prevention", "ticks", "lower", "virtual"},
	{"sim.prevention_overhead_pct", "%", "lower", "virtual"},
	{"explore.schedules", "count", "higher", "count"},
	{"explore.restores", "count", "lower", "count"},
	{"explore.snapshots", "count", "lower", "count"},
	{"explore.resumed", "count", "higher", "count"},
	{"explore.pruned", "count", "higher", "count"},
	{"explore.vanilla_divergences", "count", "higher", "count"},
	{"explore.prevention_divergences", "count", "lower", "count"},
	{"oracle.recall", "ratio", "higher", "count"},
	{"oracle.precision", "ratio", "higher", "count"},
	{"host.peak_rss_mb", "MB", "lower", "host"},
	{"trace.overhead_pct", "%", "lower", "wall"},
	{"trace.pass_ms", "ms", "lower", "wall"},
	{"self_ms.bench", "ms", "lower", "wall"},
	{"self_ms.minic", "ms", "lower", "wall"},
	{"self_ms.annotate", "ms", "lower", "wall"},
	{"self_ms.compile", "ms", "lower", "wall"},
	{"self_ms.core", "ms", "lower", "wall"},
	{"self_ms.kernel", "ms", "lower", "wall"},
	{"self_ms.vm", "ms", "lower", "wall"},
	{"self_ms.explore", "ms", "lower", "wall"},
}
