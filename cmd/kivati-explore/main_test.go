package main

import (
	"math"
	"testing"

	"kivati/internal/bugs"
	"kivati/internal/explore"
)

// TestRateCountsExecutedRuns: a bound-1 DFS exhausts its frontier long
// before the schedule budget, so the -json report's schedules_per_sec must
// be executed runs per second, not the budget per second.
func TestRateCountsExecutedRuns(t *testing.T) {
	var subjects []*explore.Subject
	for _, b := range bugs.Corpus() {
		s, err := explore.BugSubject(b)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, s)
	}
	opts := explore.Options{Strategy: explore.DFS, Schedules: 1000, Bound: 1, Horizon: 8, Parallelism: 1}
	var rep report
	if err := sweep(&rep, subjects, opts, "", false); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, d := range rep.Subjects {
		runs += len(d.Vanilla.Runs) + len(d.Prevention.Runs)
	}
	if runs != rep.Runs || runs == 0 {
		t.Fatalf("subjects executed %d runs, report says %d", runs, rep.Runs)
	}
	if budget := len(subjects) * 2 * opts.Schedules; rep.Runs >= budget {
		t.Fatalf("executed %d runs against a budget of %d; the frontier should run out first", rep.Runs, budget)
	}
	if got := rep.SchedulesPerSec * rep.TotalSeconds; math.Abs(got-float64(rep.Runs)) > 1e-6*float64(rep.Runs) {
		t.Errorf("schedules/sec x seconds = %.3f, want the %d executed runs", got, rep.Runs)
	}
}

// TestPreventionTimeoutsReported: NSS/341323's prevention runs go through
// the suspension timeout, and the report's total is the sum of the runs'.
func TestPreventionTimeoutsReported(t *testing.T) {
	b, err := bugs.ByID("NSS", "341323")
	if err != nil {
		t.Fatal(err)
	}
	s, err := explore.BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := sweep(&rep, []*explore.Subject{s}, explore.Options{Schedules: 20, Parallelism: 1}, "", false); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, run := range rep.Subjects[0].Prevention.Runs {
		sum += run.Timeouts
	}
	if sum == 0 || rep.PreventionTimeouts != sum {
		t.Errorf("prevention timeouts: runs sum to %d, report says %d; want a nonzero total", sum, rep.PreventionTimeouts)
	}
}
