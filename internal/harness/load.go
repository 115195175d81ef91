package harness

import (
	"fmt"
	"strings"

	"kivati/internal/kernel"
	"kivati/internal/pool"
	"kivati/internal/stats"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// The open-loop load driver: the heavy-traffic half of the soak story.
// Where Table 5 reports mean request latency at the workload's baked-in
// arrival rate, the load driver points a seeded open-loop request
// generator (exponential interarrivals drawn from the machine RNG, so the
// arrival schedule is part of the seed) at a server workload and reports
// the latency *distribution* — p50/p95/p99 — per engine configuration.
// Open loop means arrivals do not wait for completions: a slow server
// builds queueing delay into the tail percentiles instead of silently
// throttling the generator, which is exactly the regime a production
// latency gate cares about.

// serverBase maps each server workload to its per-scale-unit request
// count (the generators bake served-request caps into the program text at
// iters(scale, base)).
var serverBase = map[string]int{
	"webstone": 260,
	"tpc-w":    300,
}

// LoadOptions configure one load-driver run.
type LoadOptions struct {
	Workload string // server workload name (default Webstone)
	// Requests is the target request count; the workload is rebuilt at the
	// scale whose baked-in served cap matches (default 240).
	Requests int
	// MeanInterarrival is the open-loop generator's mean gap in ticks
	// (default 900; the Table 5 rate is 1100 for Webstone).
	MeanInterarrival uint64
	Seed             int64
	Cores            int // default 2
	Watchpoints      int // default 4
	MaxTicks         uint64
	Parallelism      int
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Workload == "" {
		o.Workload = "Webstone"
	}
	if o.Requests == 0 {
		o.Requests = 240
	}
	if o.MeanInterarrival == 0 {
		o.MeanInterarrival = 900
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// LoadRow is one configuration's latency distribution.
type LoadRow struct {
	Config   string `json:"config"`
	Requests int    `json:"requests"`
	Ticks    uint64 `json:"ticks"`
	// ThroughputRPS is served requests per simulated second (1 tick = 1 µs).
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanTicks     float64 `json:"mean_ticks"`
	P50           uint64  `json:"p50_ticks"`
	P95           uint64  `json:"p95_ticks"`
	P99           uint64  `json:"p99_ticks"`
	WorstTicks    uint64  `json:"worst_ticks"`
	// OverheadPct is the mean-latency overhead versus the vanilla row.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// LoadReport is the kivati-load/v1 output.
type LoadReport struct {
	Schema           string    `json:"schema"`
	Workload         string    `json:"workload"`
	Requests         int       `json:"requests"`
	MeanInterarrival uint64    `json:"mean_interarrival_ticks"`
	Seed             int64     `json:"seed"`
	Rows             []LoadRow `json:"rows"`
}

// loadConfigs are the engine configurations the driver compares, in row
// order; vanilla is the overhead baseline.
var loadConfigs = []struct {
	name    string
	mode    kernel.Mode
	vanilla bool
}{
	{"vanilla", kernel.Prevention, true},
	{"prevention", kernel.Prevention, false},
	{"bugfinding", kernel.BugFinding, false},
}

// RunLoad drives one server workload under the open-loop generator in
// every configuration and reports per-config latency percentiles. Given a
// seed, the arrival schedule — and therefore the whole report — is
// deterministic.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Requests < 0 {
		return nil, fmt.Errorf("load: Requests %d is negative", opts.Requests)
	}
	o := opts.withDefaults()
	base, ok := serverBase[strings.ToLower(o.Workload)]
	if !ok {
		return nil, fmt.Errorf("load: %q is not a server workload (want Webstone or TPC-W)", o.Workload)
	}
	// The +0.5 keeps iters' truncation from landing one request short.
	spec, err := workloads.ByName(o.Workload, workloads.Scale((float64(o.Requests)+0.5)/float64(base)))
	if err != nil {
		return nil, err
	}
	a, err := sharedCache.prepare(spec)
	if err != nil {
		return nil, err
	}
	ho := Options{Seed: o.Seed, Cores: o.Cores, Watchpoints: o.Watchpoints, MaxTicks: o.MaxTicks}.defaults()

	jobs := make([]func() (*vm.Result, error), len(loadConfigs))
	for i, lc := range loadConfigs {
		lc := lc
		jobs[i] = func() (*vm.Result, error) {
			cfg := a.config(ho, lc.mode, kernel.OptOptimized, lc.vanilla)
			cfg.Requests = &vm.RequestConfig{
				MeanInterarrival: o.MeanInterarrival,
				Count:            spec.Requests.Count,
			}
			return a.run(cfg)
		}
	}
	results, err := runJobs(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	rep := &LoadReport{
		Schema:           "kivati-load/v1",
		Workload:         spec.Name,
		Requests:         spec.Requests.Count,
		MeanInterarrival: o.MeanInterarrival,
		Seed:             o.Seed,
	}
	var vanillaMean float64
	for i, res := range results {
		lat := res.Latencies
		row := LoadRow{
			Config:    loadConfigs[i].name,
			Requests:  len(lat),
			Ticks:     res.Ticks,
			MeanTicks: stats.MeanU64(lat),
			P50:       stats.Percentile(lat, 50),
			P95:       stats.Percentile(lat, 95),
			P99:       stats.Percentile(lat, 99),
		}
		for _, l := range lat {
			if l > row.WorstTicks {
				row.WorstTicks = l
			}
		}
		if res.Ticks > 0 {
			row.ThroughputRPS = float64(len(lat)) / float64(res.Ticks) * 1e6
		}
		if i == 0 {
			vanillaMean = row.MeanTicks
		} else if vanillaMean > 0 {
			row.OverheadPct = (row.MeanTicks - vanillaMean) / vanillaMean * 100
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// String renders the latency table.
func (r *LoadReport) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "load: %s, %d requests, mean interarrival %d ticks, seed %d (open loop)\n",
		r.Workload, r.Requests, r.MeanInterarrival, r.Seed)
	fmt.Fprintf(&s, "%-11s %9s %11s %9s %8s %8s %8s %9s %9s\n",
		"config", "requests", "throughput", "mean", "p50", "p95", "p99", "worst", "overhead")
	for _, row := range r.Rows {
		over := ""
		if row.Config != "vanilla" {
			over = fmt.Sprintf("%+.1f%%", row.OverheadPct)
		}
		fmt.Fprintf(&s, "%-11s %9d %9.0f/s %9.0f %8d %8d %8d %9d %9s\n",
			row.Config, row.Requests, row.ThroughputRPS, row.MeanTicks,
			row.P50, row.P95, row.P99, row.WorstTicks, over)
	}
	return s.String()
}
