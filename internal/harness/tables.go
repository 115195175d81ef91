package harness

import (
	"fmt"
	"strings"

	"kivati/internal/hw"
	"kivati/internal/kernel"
	"kivati/internal/pool"
	"kivati/internal/stats"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// Table1 reproduces the hardware watchpoint survey.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Hardware watchpoint support survey\n")
	fmt.Fprintf(&b, "%-8s %-8s %-7s %s\n", "Arch", "Support", "Number", "Type")
	for _, a := range hw.Survey {
		sup := "No"
		if a.Support {
			sup = "Yes"
		}
		fmt.Fprintf(&b, "%-8s %-8s %-7d %s\n", a.Arch, sup, a.Num, a.Timing)
	}
	return b.String()
}

// Table2 lists the applications and workloads.
func Table2(o Options) string {
	o = o.defaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Applications and workloads\n")
	fmt.Fprintf(&b, "%-10s %s\n", "App", "Workload")
	for _, spec := range workloads.PerfSuite(workloads.Scale(o.Scale)) {
		fmt.Fprintf(&b, "%-10s %s\n", spec.Name, spec.Description)
	}
	return b.String()
}

// runSpec is one pool job: prepare the workload through the build cache
// (compiling at most once per process) and execute one configuration.
func runSpec(o Options, spec *workloads.Spec, mode kernel.Mode, opt kernel.OptLevel, vanilla bool) (*vm.Result, error) {
	a, err := sharedCache.prepare(spec)
	if err != nil {
		return nil, err
	}
	return a.run(a.config(o, mode, opt, vanilla))
}

// Table3Cell is one overhead measurement: prevention / bug-finding.
type Table3Cell struct {
	PrevPct float64
	BugPct  float64
}

// Table3Row is one application's Table 3 row.
type Table3Row struct {
	App          string
	VanillaTicks uint64
	Base         Table3Cell
	NullSyscall  Table3Cell
	SyncVars     Table3Cell
	Optimized    Table3Cell
}

// Table3Result holds all rows plus the geometric-mean summary.
type Table3Result struct {
	Rows    []Table3Row
	GeoMean Table3Row // App = "geo. mean"; VanillaTicks unused
}

// RunTable3 measures runtime overhead for every application under the four
// optimization levels, in prevention and bug-finding mode, against the
// vanilla binary. The 45 independent runs (5 apps x [1 vanilla + 4 levels x
// 2 modes]) fan out across the worker pool; results are slotted by job
// index so the aggregation below sees them in the exact serial order.
func RunTable3(o Options) (*Table3Result, error) {
	o = o.defaults()
	specs := workloads.PerfSuite(workloads.Scale(o.Scale))
	levels := []kernel.OptLevel{kernel.OptBase, kernel.OptNullSyscall, kernel.OptSyncVars, kernel.OptOptimized}
	modes := []kernel.Mode{kernel.Prevention, kernel.BugFinding}
	perApp := 1 + len(levels)*len(modes)

	var jobs []func() (*vm.Result, error)
	for _, spec := range specs {
		jobs = append(jobs, func() (*vm.Result, error) {
			return runSpec(o, spec, kernel.Prevention, kernel.OptBase, true)
		})
		for _, opt := range levels {
			for _, mode := range modes {
				jobs = append(jobs, func() (*vm.Result, error) {
					return runSpec(o, spec, mode, opt, false)
				})
			}
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	out := &Table3Result{}
	sums := map[kernel.OptLevel][2][]float64{}
	for si, spec := range specs {
		van := results[si*perApp]
		row := Table3Row{App: spec.Name, VanillaTicks: van.Ticks}
		for oi, opt := range levels {
			var cell Table3Cell
			for mi := range modes {
				res := results[si*perApp+1+oi*len(modes)+mi]
				pct := stats.OverheadPct(van.Ticks, res.Ticks)
				if mi == 0 {
					cell.PrevPct = pct
				} else {
					cell.BugPct = pct
				}
				s := sums[opt]
				// Geometric means need positive ratios; store the
				// runtime ratio, convert back when summarizing.
				s[mi] = append(s[mi], float64(res.Ticks)/float64(van.Ticks))
				sums[opt] = s
			}
			switch opt {
			case kernel.OptBase:
				row.Base = cell
			case kernel.OptNullSyscall:
				row.NullSyscall = cell
			case kernel.OptSyncVars:
				row.SyncVars = cell
			case kernel.OptOptimized:
				row.Optimized = cell
			}
		}
		out.Rows = append(out.Rows, row)
	}
	gm := Table3Row{App: "geo. mean"}
	cell := func(opt kernel.OptLevel) Table3Cell {
		s := sums[opt]
		return Table3Cell{
			PrevPct: (stats.GeoMean(s[0]) - 1) * 100,
			BugPct:  (stats.GeoMean(s[1]) - 1) * 100,
		}
	}
	gm.Base = cell(kernel.OptBase)
	gm.NullSyscall = cell(kernel.OptNullSyscall)
	gm.SyncVars = cell(kernel.OptSyncVars)
	gm.Optimized = cell(kernel.OptOptimized)
	out.GeoMean = gm
	return out, nil
}

func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Runtime overhead (%%, prevention / bug-finding) vs vanilla\n")
	fmt.Fprintf(&b, "%-10s %12s %15s %15s %15s %15s\n",
		"App", "Runtime(Mt)", "Base", "Null syscall", "SyncVars", "Optimized")
	cell := func(c Table3Cell) string {
		return fmt.Sprintf("%5.1f /%5.1f", c.PrevPct, c.BugPct)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12.2f %15s %15s %15s %15s\n",
			row.App, float64(row.VanillaTicks)/1e6,
			cell(row.Base), cell(row.NullSyscall), cell(row.SyncVars), cell(row.Optimized))
	}
	fmt.Fprintf(&b, "%-10s %12s %15s %15s %15s %15s\n",
		r.GeoMean.App, "",
		cell(r.GeoMean.Base), cell(r.GeoMean.NullSyscall), cell(r.GeoMean.SyncVars), cell(r.GeoMean.Optimized))
	return b.String()
}

// Table4Row is one application's kernel-crossing rates in thousands per
// (virtual) second under three optimization levels.
type Table4Row struct {
	App               string
	BaseKps           float64
	SyncVarsKps       float64
	SyncVarsReduction float64 // % vs base
	OptKps            float64
	OptReduction      float64
}

// Table4Result holds the rows and the average reduction.
type Table4Result struct {
	Rows         []Table4Row
	AvgReduction float64 // optimized vs base, mean across apps
}

// RunTable4 counts kernel domain crossings (begin/end/clear syscalls plus
// remote traps) per virtual second in prevention mode. The 15 runs (5 apps
// x 3 levels) fan out across the pool.
func RunTable4(o Options) (*Table4Result, error) {
	o = o.defaults()
	specs := workloads.PerfSuite(workloads.Scale(o.Scale))
	levels := []kernel.OptLevel{kernel.OptBase, kernel.OptSyncVars, kernel.OptOptimized}

	var jobs []func() (*vm.Result, error)
	for _, spec := range specs {
		for _, opt := range levels {
			jobs = append(jobs, func() (*vm.Result, error) {
				return runSpec(o, spec, kernel.Prevention, opt, false)
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	kps := func(res *vm.Result) float64 {
		secs := float64(res.Ticks) / 1e6 // 1 tick = 1 µs
		return float64(res.Stats.KernelEntries()) / secs / 1e3
	}
	out := &Table4Result{}
	var reductions []float64
	for si, spec := range specs {
		base := kps(results[si*len(levels)])
		sync := kps(results[si*len(levels)+1])
		optz := kps(results[si*len(levels)+2])
		row := Table4Row{
			App: spec.Name, BaseKps: base,
			SyncVarsKps: sync, SyncVarsReduction: (base - sync) / base * 100,
			OptKps: optz, OptReduction: (base - optz) / base * 100,
		}
		reductions = append(reductions, row.OptReduction)
		out.Rows = append(out.Rows, row)
	}
	out.AvgReduction = stats.Mean(reductions)
	return out, nil
}

func (r *Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Kernel crossings (K/s): base, +syncvars, +all optimizations\n")
	fmt.Fprintf(&b, "%-10s %10s %18s %18s\n", "App", "Base", "SyncVars", "Optimized")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.0f %10.0f (%3.0f%%) %10.0f (%3.0f%%)\n",
			row.App, row.BaseKps, row.SyncVarsKps, row.SyncVarsReduction,
			row.OptKps, row.OptReduction)
	}
	fmt.Fprintf(&b, "average reduction (optimized vs base): %.0f%%\n", r.AvgReduction)
	return b.String()
}

// Table5Row is one server application's request latency (mean, in ticks =
// µs) under vanilla, prevention and bug-finding. The p50/p99 percentiles
// of the same runs appear only in -json; FormatTable5 prints the means.
type Table5Row struct {
	App         string
	Vanilla     float64
	Prevention  float64
	PrevPct     float64
	BugFinding  float64
	BugPct      float64
	NumRequests int

	VanillaP50, VanillaP99       uint64
	PreventionP50, PreventionP99 uint64
	BugFindingP50, BugFindingP99 uint64
}

// RunTable5 measures request latency for the two server workloads under the
// fully optimized configuration; the 6 runs fan out across the pool.
func RunTable5(o Options) ([]Table5Row, error) {
	o = o.defaults()
	var servers []*workloads.Spec
	for _, spec := range workloads.PerfSuite(workloads.Scale(o.Scale)) {
		if spec.Server {
			servers = append(servers, spec)
		}
	}

	var jobs []func() (*vm.Result, error)
	for _, spec := range servers {
		for _, cfg := range []struct {
			mode    kernel.Mode
			vanilla bool
		}{{kernel.Prevention, true}, {kernel.Prevention, false}, {kernel.BugFinding, false}} {
			jobs = append(jobs, func() (*vm.Result, error) {
				return runSpec(o, spec, cfg.mode, kernel.OptOptimized, cfg.vanilla)
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	var out []Table5Row
	for si, spec := range servers {
		vanLat, prevLat, bugLat := results[si*3].Latencies, results[si*3+1].Latencies, results[si*3+2].Latencies
		van, prev, bug := stats.MeanU64(vanLat), stats.MeanU64(prevLat), stats.MeanU64(bugLat)
		out = append(out, Table5Row{
			App: spec.Name, Vanilla: van,
			Prevention: prev, PrevPct: (prev - van) / van * 100,
			BugFinding: bug, BugPct: (bug - van) / van * 100,
			NumRequests: len(vanLat),

			VanillaP50: stats.Percentile(vanLat, 50), VanillaP99: stats.Percentile(vanLat, 99),
			PreventionP50: stats.Percentile(prevLat, 50), PreventionP99: stats.Percentile(prevLat, 99),
			BugFindingP50: stats.Percentile(bugLat, 50), BugFindingP99: stats.Percentile(bugLat, 99),
		})
	}
	return out, nil
}

// FormatTable5 renders the latency rows.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. Request latency (ticks), vanilla vs prevention vs bug-finding\n")
	fmt.Fprintf(&b, "%-10s %10s %18s %18s %6s\n", "App", "Vanilla", "Prevention", "Bug", "reqs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.0f %10.0f (%4.1f%%) %10.0f (%4.1f%%) %6d\n",
			r.App, r.Vanilla, r.Prevention, r.PrevPct, r.BugFinding, r.BugPct, r.NumRequests)
	}
	return b.String()
}
