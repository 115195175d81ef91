package harness

import (
	"math"
	"testing"

	"kivati/internal/explore"
)

// TestExploreBenchRateCountsExecutedRuns: a bound-1 DFS exhausts its
// frontier long before the schedule budget, so the reported rate must be
// executed runs per second, not the budget per second.
func TestExploreBenchRateCountsExecutedRuns(t *testing.T) {
	opts := explore.Options{Strategy: explore.DFS, Schedules: 1000, Bound: 1, Horizon: 8, Parallelism: 1}
	rep, err := RunExploreBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, row := range rep.Rows {
		runs += row.Runs
	}
	if runs != rep.Runs || runs == 0 {
		t.Fatalf("rows executed %d runs, report says %d", runs, rep.Runs)
	}
	if budget := len(rep.Rows) * 2 * opts.Schedules; rep.Runs >= budget {
		t.Fatalf("executed %d runs against a budget of %d; the frontier should run out first", rep.Runs, budget)
	}
	if got := rep.SchedulesPerSec * rep.TotalSeconds; math.Abs(got-float64(rep.Runs)) > 1e-6*float64(rep.Runs) {
		t.Errorf("schedules/sec x seconds = %.3f, want the %d executed runs", got, rep.Runs)
	}
	if err := GateExploreBench(rep, rep); err != nil {
		t.Errorf("a sweep fails the gate against itself: %v", err)
	}
}
