package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"kivati/internal/bugs"
	"kivati/internal/explore"
)

// ExploreBenchSchema versions the BENCH_explore.json format: the
// schedule-exploration throughput sweep over the 11-bug corpus. v2 added
// the aggregate decision-point cost columns; v3 dropped the replay-engine
// baseline columns and ns_per_decision, and counts executed runs.
const ExploreBenchSchema = "kivati-explore/v3"

// ExploreBenchRow is one corpus bug's differential sweep. The divergence
// counts and engine counters are deterministic (virtual clock); Seconds is
// wall-clock and host-dependent.
type ExploreBenchRow struct {
	Bug     string  `json:"bug"`
	Seconds float64 `json:"seconds"`
	// VanillaDivergences / PreventionDivergences are the oracle verdicts.
	VanillaDivergences    int `json:"vanilla_divergences"`
	PreventionDivergences int `json:"prevention_divergences"`
	ExploreTotals
}

// ExploreTotals sums differential reports over both modes: the schedules
// actually executed, the engine counters, and the decision-point cost
// accounting. Decisions counts scheduler decision points;
// SamePickContinues counts the kernel crossings the same-pick superstep
// continuation avoided; DeltaArms/FullArms split the watchpoint re-arms at
// real crossings into incremental delta applications vs full
// register-file rewrites.
type ExploreTotals struct {
	// Runs is below the schedule budget when a DFS frontier runs out or
	// DPOR prunes, so rates divide Runs, never the budget.
	Runs int `json:"runs"`
	explore.EngineStats
	Decisions         uint64 `json:"decisions"`
	SamePickContinues uint64 `json:"same_pick_continues"`
	DeltaArms         uint64 `json:"delta_arms"`
	FullArms          uint64 `json:"full_arms"`
}

// Add accumulates one differential report.
func (t *ExploreTotals) Add(d *explore.DiffReport) {
	for _, mr := range []*explore.Report{d.Vanilla, d.Prevention} {
		t.Runs += len(mr.Runs)
		t.Snapshots += mr.Stats.Snapshots
		t.Restores += mr.Stats.Restores
		t.Resumed += mr.Stats.Resumed
		t.Pruned += mr.Stats.Pruned
		for _, run := range mr.Runs {
			t.Decisions += uint64(run.Decisions)
			t.SamePickContinues += run.SamePickContinues
			t.DeltaArms += run.DeltaArms
			t.FullArms += run.FullArms
		}
	}
}

// ExploreBenchReport is written to BENCH_explore.json by
// `kivati-explore -bench-out`.
type ExploreBenchReport struct {
	Schema    string            `json:"schema"`
	Strategy  explore.Strategy  `json:"strategy"`
	DPOR      bool              `json:"dpor,omitempty"`
	Schedules int               `json:"schedules"` // budget per mode per bug
	Seed      int64             `json:"seed"`
	Bound     int               `json:"bound,omitempty"`
	Rows      []ExploreBenchRow `json:"rows"`
	// Aggregates over the whole sweep; SchedulesPerSec is executed runs
	// per wall-clock second.
	TotalSeconds    float64 `json:"total_seconds"`
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	ExploreTotals
}

// RunExploreBench sweeps the corpus with the given exploration options and
// reports verdicts, engine counters and throughput per bug.
func RunExploreBench(opts explore.Options) (*ExploreBenchReport, error) {
	rep := &ExploreBenchReport{
		Schema:    ExploreBenchSchema,
		Strategy:  opts.Strategy,
		DPOR:      opts.DPOR,
		Schedules: opts.Schedules,
		Seed:      opts.Seed,
	}
	if rep.Strategy == "" {
		rep.Strategy = explore.Random
	}
	if rep.Strategy == explore.DFS {
		rep.Bound = opts.Bound
	}
	for _, b := range bugs.Corpus() {
		s, err := explore.BugSubject(b)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := explore.Differential(s, opts)
		if err != nil {
			return nil, fmt.Errorf("explorebench: %s: %w", s.Name, err)
		}
		secs := time.Since(t0).Seconds()
		row := ExploreBenchRow{
			Bug:                   s.Name,
			Seconds:               secs,
			VanillaDivergences:    d.VanillaDivergences(),
			PreventionDivergences: d.PreventionDivergences(),
		}
		row.Add(d)
		rep.Add(d)
		rep.Rows = append(rep.Rows, row)
		rep.TotalSeconds += secs
	}
	if rep.TotalSeconds > 0 {
		rep.SchedulesPerSec = float64(rep.Runs) / rep.TotalSeconds
	}
	return rep, nil
}

func (r *ExploreBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Exploration throughput (%s, strategy=%s, %d schedules/mode)\n",
		r.Schema, r.Strategy, r.Schedules)
	fmt.Fprintf(&b, "%-14s %9s %6s %6s %10s %9s %7s %7s\n",
		"Bug", "seconds", "vdiv", "pdiv", "snapshots", "restores", "resume", "pruned")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %9.2f %6d %6d %10d %9d %7d %7d\n",
			row.Bug, row.Seconds, row.VanillaDivergences, row.PreventionDivergences,
			row.Snapshots, row.Restores, row.Resumed, row.Pruned)
	}
	fmt.Fprintf(&b, "total: %d runs in %.2fs = %.1f sched/s\n", r.Runs, r.TotalSeconds, r.SchedulesPerSec)
	if r.Decisions > 0 {
		fmt.Fprintf(&b, "decisions: %d; %d crossings avoided (same-pick), arms %d delta / %d full\n",
			r.Decisions, r.SamePickContinues, r.DeltaArms, r.FullArms)
	}
	return b.String()
}

// WriteExploreBench writes the report as indented JSON.
func WriteExploreBench(path string, r *ExploreBenchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadExploreBench loads a baseline report, validating the schema tag.
func ReadExploreBench(path string) (*ExploreBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ExploreBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("explorebench: %s: %w", path, err)
	}
	if r.Schema != ExploreBenchSchema {
		return nil, fmt.Errorf("explorebench: %s: schema %q, want %q", path, r.Schema, ExploreBenchSchema)
	}
	return &r, nil
}

// ExploreBenchGateMinSchedRatio is the floor on current schedules/sec
// relative to the baseline's recorded schedules/sec. The baseline number
// comes from a different host, so the floor must absorb the full spread
// between a dev box and a loaded CI runner; 0.25 catches an
// order-of-magnitude throughput collapse (a demoted fast path, an
// accidental per-schedule rebuild) without flaking on slow runners.
const ExploreBenchGateMinSchedRatio = 0.25

// GateExploreBench is the enforcing regression check. Deterministic
// columns gate hard: the current sweep must report exactly the baseline's
// vanilla divergence count for every bug and zero prevention divergences
// anywhere. The wall-clock gate is a loose floor on schedules/sec relative
// to the baseline's recorded throughput. Bugs absent from the baseline
// pass — a new corpus entry needs a refreshed baseline, not a red build.
func GateExploreBench(baseline, current *ExploreBenchReport) error {
	if baseline.Strategy != current.Strategy || baseline.Schedules != current.Schedules ||
		baseline.Seed != current.Seed || baseline.Bound != current.Bound {
		return fmt.Errorf("explorebench gate: configuration mismatch: baseline %s/%d/seed%d/bound%d vs current %s/%d/seed%d/bound%d",
			baseline.Strategy, baseline.Schedules, baseline.Seed, baseline.Bound,
			current.Strategy, current.Schedules, current.Seed, current.Bound)
	}
	base := make(map[string]ExploreBenchRow, len(baseline.Rows))
	for _, row := range baseline.Rows {
		base[row.Bug] = row
	}
	var fails []string
	for _, row := range current.Rows {
		if row.PreventionDivergences != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d prevention-mode divergences (engine bug)",
				row.Bug, row.PreventionDivergences))
		}
		old, ok := base[row.Bug]
		if !ok {
			continue
		}
		if row.VanillaDivergences != old.VanillaDivergences {
			fails = append(fails, fmt.Sprintf("%s: vanilla divergences %d, baseline %d",
				row.Bug, row.VanillaDivergences, old.VanillaDivergences))
		}
	}
	if baseline.SchedulesPerSec > 0 &&
		current.SchedulesPerSec < ExploreBenchGateMinSchedRatio*baseline.SchedulesPerSec {
		fails = append(fails, fmt.Sprintf(
			"%.1f schedules/sec under %.0f%% of the baseline's %.1f",
			current.SchedulesPerSec, 100*ExploreBenchGateMinSchedRatio, baseline.SchedulesPerSec))
	}
	if len(fails) > 0 {
		return fmt.Errorf("explorebench gate:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}
