package harness

import (
	"fmt"
	"strings"

	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/pool"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// Table7Row is one application's false-positive count and watchpoint trap
// rate under prevention and bug-finding mode.
type Table7Row struct {
	App        string
	PrevFP     int
	PrevTraps  float64 // traps per virtual second
	BugFP      int
	BugTraps   float64
	Violations int
}

// RunTable7 runs the performance workloads (which contain no injected bugs)
// and counts false positives — unique atomic regions with at least one
// violation (§4.2) — plus the watchpoint trap rate. The 10 runs (5 apps x 2
// modes) fan out across the pool.
func RunTable7(o Options) ([]Table7Row, error) {
	o = o.defaults()
	specs := workloads.PerfSuite(workloads.Scale(o.Scale))
	modes := []kernel.Mode{kernel.Prevention, kernel.BugFinding}

	var jobs []func() (*vm.Result, error)
	for _, spec := range specs {
		for _, mode := range modes {
			jobs = append(jobs, func() (*vm.Result, error) {
				a, err := sharedCache.prepare(spec)
				if err != nil {
					return nil, err
				}
				// Unlike the other tables, Table 7 keeps runs that stop
				// early: a violation in prevention mode is the datum, not
				// a failure.
				return core.Run(a.prog, a.config(o, mode, kernel.OptOptimized, false))
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	measure := func(res *vm.Result) (int, float64, int) {
		unique := map[int]bool{}
		for _, v := range res.Violations {
			unique[v.ARID] = true
		}
		secs := float64(res.Ticks) / 1e6
		return len(unique), float64(res.Stats.Traps) / secs, len(res.Violations)
	}
	var out []Table7Row
	for si, spec := range specs {
		row := Table7Row{App: spec.Name}
		var nv int
		row.PrevFP, row.PrevTraps, nv = measure(results[si*2])
		row.Violations = nv
		row.BugFP, row.BugTraps, _ = measure(results[si*2+1])
		out = append(out, row)
	}
	return out, nil
}

// FormatTable7 renders the false-positive rows.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7. False positives (unique violated ARs) and watchpoint traps/s\n")
	fmt.Fprintf(&b, "%-10s | %6s %9s | %6s %9s\n", "App", "FP", "Traps/s", "FP", "Traps/s")
	fmt.Fprintf(&b, "%-10s | %16s | %16s\n", "", "prevention", "bug-finding")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %6d %9.1f | %6d %9.1f\n",
			r.App, r.PrevFP, r.PrevTraps, r.BugFP, r.BugTraps)
	}
	return b.String()
}

// Table8Row is one application's missed-AR rate with the default four
// watchpoints.
type Table8Row struct {
	App        string
	PrevKps    float64 // thousands of missed ARs per second
	PrevPct    float64 // % of all executed ARs
	BugKps     float64
	BugPct     float64
	MonitoredK float64 // thousands of ARs monitored (context)
}

// RunTable8 measures ARs Kivati could not monitor because all watchpoint
// registers were in use (§3.5); the 10 runs fan out across the pool.
func RunTable8(o Options) ([]Table8Row, error) {
	o = o.defaults()
	specs := workloads.PerfSuite(workloads.Scale(o.Scale))
	modes := []kernel.Mode{kernel.Prevention, kernel.BugFinding}

	var jobs []func() (*vm.Result, error)
	for _, spec := range specs {
		for _, mode := range modes {
			jobs = append(jobs, func() (*vm.Result, error) {
				return runSpec(o, spec, mode, kernel.OptOptimized, false)
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	measure := func(res *vm.Result) (kps, pct, monK float64) {
		secs := float64(res.Ticks) / 1e6
		missed := float64(res.Stats.MissedARs)
		total := missed + float64(res.Stats.MonitoredARs)
		if total == 0 {
			return 0, 0, 0
		}
		return missed / secs / 1e3, missed / total * 100, float64(res.Stats.MonitoredARs) / 1e3
	}
	var out []Table8Row
	for si, spec := range specs {
		row := Table8Row{App: spec.Name}
		row.PrevKps, row.PrevPct, row.MonitoredK = measure(results[si*2])
		row.BugKps, row.BugPct, _ = measure(results[si*2+1])
		out = append(out, row)
	}
	return out, nil
}

// FormatTable8 renders the missed-AR rows.
func FormatTable8(rows []Table8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8. Missed ARs (K/s and %% of ARs) with 4 watchpoints\n")
	fmt.Fprintf(&b, "%-10s | %8s %7s | %8s %7s\n", "App", "K/s", "%ARs", "K/s", "%ARs")
	fmt.Fprintf(&b, "%-10s | %16s | %16s\n", "", "prevention", "bug-finding")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %8.2f %6.2f%% | %8.2f %6.2f%%\n",
			r.App, r.PrevKps, r.PrevPct, r.BugKps, r.BugPct)
	}
	return b.String()
}

// Table9Result maps each application to its missed-AR percentage for
// watchpoint counts 2..12.
type Table9Result struct {
	Counts []int // the swept watchpoint counts
	Pct    map[string][]float64
	Apps   []string
}

// RunTable9 sweeps the watchpoint register count, the paper's answer to
// "how many registers would be enough?". The 55 runs (5 apps x 11 counts)
// fan out across the pool — the widest fan-out in the harness.
func RunTable9(o Options) (*Table9Result, error) {
	o = o.defaults()
	specs := workloads.PerfSuite(workloads.Scale(o.Scale))
	out := &Table9Result{Pct: map[string][]float64{}}
	for n := 2; n <= 12; n++ {
		out.Counts = append(out.Counts, n)
	}

	var jobs []func() (*vm.Result, error)
	for _, spec := range specs {
		for _, n := range out.Counts {
			jobs = append(jobs, func() (*vm.Result, error) {
				a, err := sharedCache.prepare(spec)
				if err != nil {
					return nil, err
				}
				cfg := a.config(o, kernel.Prevention, kernel.OptOptimized, false)
				cfg.NumWatchpoints = n
				return a.run(cfg)
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	for si, spec := range specs {
		out.Apps = append(out.Apps, spec.Name)
		for ci := range out.Counts {
			res := results[si*len(out.Counts)+ci]
			missed := float64(res.Stats.MissedARs)
			total := missed + float64(res.Stats.MonitoredARs)
			pct := 0.0
			if total > 0 {
				pct = missed / total * 100
			}
			out.Pct[spec.Name] = append(out.Pct[spec.Name], pct)
		}
	}
	return out, nil
}

func (r *Table9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 9. %% of ARs missed vs number of watchpoint registers\n")
	fmt.Fprintf(&b, "%-10s", "App")
	for _, n := range r.Counts {
		fmt.Fprintf(&b, " %7d", n)
	}
	b.WriteString("\n")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, "%-10s", app)
		for _, p := range r.Pct[app] {
			fmt.Fprintf(&b, " %6.2f%%", p)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure7Result holds the training curves: new false positives per training
// iteration, for prevention and bug-finding mode.
type Figure7Result struct {
	App        string
	Prevention []int
	BugFinding []int
}

// RunFigure7 reproduces the whitelist training experiment: repeated runs,
// each adding the violated ARs to the whitelist; bug-finding mode surfaces
// more false positives per iteration and converges in fewer iterations.
// Each training campaign is inherently sequential (every iteration feeds
// the next one's whitelist), so the pool parallelizes across the 10
// campaigns (5 apps x 2 modes) rather than within one.
func RunFigure7(o Options, iterations int) ([]Figure7Result, error) {
	o = o.defaults()
	if iterations <= 0 {
		iterations = 7
	}
	// Each training iteration is a shorter run than the Table 3 benchmarks:
	// rare benign violations then surface across iterations rather than all
	// at once, which is what produces the paper's decaying curves.
	specs := workloads.PerfSuite(workloads.Scale(o.Scale * 0.5))
	modes := []kernel.Mode{kernel.Prevention, kernel.BugFinding}

	var jobs []func() ([]int, error)
	for _, spec := range specs {
		for _, mode := range modes {
			jobs = append(jobs, func() ([]int, error) {
				a, err := sharedCache.prepare(spec)
				if err != nil {
					return nil, err
				}
				cfg := a.config(o, mode, kernel.OptOptimized, false)
				if mode == kernel.BugFinding {
					// Training runs are offline: sample pauses aggressively
					// so benign violations surface in fewer iterations.
					cfg.PauseEvery = 64
				}
				tr, err := core.Train(a.prog, cfg, iterations, nil)
				if err != nil {
					return nil, err
				}
				return tr.NewFPs, nil
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	var out []Figure7Result
	for si, spec := range specs {
		out = append(out, Figure7Result{
			App:        spec.Name,
			Prevention: results[si*2],
			BugFinding: results[si*2+1],
		})
	}
	return out, nil
}

// FormatFigure7 renders the training curves.
func FormatFigure7(rs []Figure7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7. New false positives per training iteration\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-10s prevention: %v\n", r.App, r.Prevention)
		fmt.Fprintf(&b, "%-10s bug-find:   %v\n", "", r.BugFinding)
	}
	return b.String()
}
