package harness_test

import (
	"reflect"
	"strings"
	"testing"

	"kivati/internal/corpusgen"
	"kivati/internal/harness"
)

// TestSoakAcceptance is the checked-in acceptance-scale soak: 200 programs
// (40 under -short) with the ring-buffer decoys on, every injected bug
// detected under vanilla exploration, zero benign false positives, zero
// prevention-mode divergences — the precision/recall contract the soak
// gate enforces, asserted per category.
func TestSoakAcceptance(t *testing.T) {
	opts := harness.SoakOptions{Programs: 200, Schedules: 40, Seed: 1, Arrays: true}
	if testing.Short() {
		opts.Programs = 40
		opts.Schedules = 24
	}
	rep, err := harness.RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corpus != opts.Programs {
		t.Errorf("corpus size = %d, want %d", rep.Corpus, opts.Programs)
	}
	if rep.Bugs+rep.Benign != rep.Corpus {
		t.Errorf("bugs(%d) + benign(%d) != corpus(%d)", rep.Bugs, rep.Benign, rep.Corpus)
	}
	if rep.PreventionDivergences != 0 {
		t.Errorf("ENGINE BUG: %d prevention-mode schedules diverged", rep.PreventionDivergences)
	}
	if rep.FalsePositives != 0 {
		t.Errorf("%d benign decoys flagged (precision = %.3f, want 1.0)", rep.FalsePositives, rep.Precision)
	}
	if rep.Missed != 0 {
		t.Errorf("%d/%d injected bugs never diverged (recall = %.3f, want 1.0)", rep.Missed, rep.Bugs, rep.Recall)
	}
	if rep.Precision != 1.0 || rep.Recall != 1.0 {
		t.Errorf("precision = %.3f recall = %.3f, want 1.0/1.0", rep.Precision, rep.Recall)
	}
	if err := rep.Gate(true); err != nil {
		t.Errorf("strict gate rejected a clean report: %v", err)
	}

	// Per-category breakdown: all five categories populated, perfect
	// precision/recall in each, counts summing to the aggregates.
	if len(rep.Categories) != len(corpusgen.Categories()) {
		t.Fatalf("%d category rows, want %d", len(rep.Categories), len(corpusgen.Categories()))
	}
	programs, detected := 0, 0
	for _, c := range rep.Categories {
		programs += c.Programs
		detected += c.Detected
		if c.Programs == 0 {
			t.Errorf("category %s: no programs", c.Category)
		}
		if c.Precision != 1.0 || c.Recall != 1.0 {
			t.Errorf("category %s: precision = %.3f recall = %.3f, want 1.0/1.0",
				c.Category, c.Precision, c.Recall)
		}
		if c.Category == string(corpusgen.CatBenign) {
			if c.Detected != 0 || c.VanillaDivergences != 0 {
				t.Errorf("benign category counts divergences: %+v", c)
			}
		} else if c.Detected != c.Programs {
			t.Errorf("category %s: detected %d/%d", c.Category, c.Detected, c.Programs)
		}
	}
	if programs != rep.Corpus || detected != rep.Detected {
		t.Errorf("category rows sum to %d programs / %d detected, want %d / %d",
			programs, detected, rep.Corpus, rep.Detected)
	}
	if s := rep.String(); !strings.Contains(s, "recall=1.000") {
		t.Errorf("report text missing aggregate recall: %q", s)
	}
}

// TestSoakDeterministicAcrossParallelism: timings aside, a soak report is
// identical at 1-way and 8-way program fan-out — campaigns are serial
// inside and every seed derives from (Seed, index).
func TestSoakDeterministicAcrossParallelism(t *testing.T) {
	opts := harness.SoakOptions{Programs: 12, Schedules: 12, Seed: 6, Arrays: true}
	opts.Parallelism = 1
	serial, err := harness.RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	parallel, err := harness.RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*harness.SoakReport{serial, parallel} {
		r.TotalSeconds, r.SchedulesPerSec = 0, 0
		for i := range r.Programs {
			r.Programs[i].Seconds = 0
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("soak reports differ between 1-way and 8-way runs:\n1-way: %+v\n8-way: %+v", serial, parallel)
	}
}

// TestSoakGate: the gate's three thresholds in isolation.
func TestSoakGate(t *testing.T) {
	clean := &harness.SoakReport{Bugs: 4, Detected: 4}
	if err := clean.Gate(true); err != nil {
		t.Errorf("clean report rejected: %v", err)
	}
	engine := &harness.SoakReport{PreventionDivergences: 1}
	if err := engine.Gate(false); err == nil || !strings.Contains(err.Error(), "ENGINE BUG") {
		t.Errorf("prevention divergence not flagged as engine bug: %v", err)
	}
	fp := &harness.SoakReport{FalsePositives: 2}
	if err := fp.Gate(false); err == nil || !strings.Contains(err.Error(), "false positives") {
		t.Errorf("false positives not gated: %v", err)
	}
	missed := &harness.SoakReport{Bugs: 4, Detected: 3, Missed: 1}
	if err := missed.Gate(false); err != nil {
		t.Errorf("non-strict gate rejected missed bugs: %v", err)
	}
	if err := missed.Gate(true); err == nil || !strings.Contains(err.Error(), "never diverged") {
		t.Errorf("strict gate ignored missed bugs: %v", err)
	}
}

// TestSoakRejectsNegativeParallelism: a negative worker count is an error
// that names the field, not a silent GOMAXPROCS-wide pool.
func TestSoakRejectsNegativeParallelism(t *testing.T) {
	_, err := harness.RunSoak(harness.SoakOptions{Programs: 1, Parallelism: -2})
	if err == nil || !strings.Contains(err.Error(), "Parallelism -2") {
		t.Errorf("got error %v, want one naming Parallelism", err)
	}
}
