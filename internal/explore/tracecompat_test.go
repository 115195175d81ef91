package explore

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
)

// TestTraceV1BackwardCompat replays a checked-in version-1 trace — recorded
// before the engine-metadata fields existed — and requires it to reproduce
// its recorded outcome exactly. Breaking this test means old trace archives
// can no longer be replayed; bump TraceVersion and keep the v1 reader
// instead.
func TestTraceV1BackwardCompat(t *testing.T) {
	tr, err := ReadTrace(filepath.Join("testdata", "trace_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version != 1 {
		t.Fatalf("fixture version = %d, want 1", tr.Version)
	}
	if tr.Engine != "" || tr.DPOR {
		t.Fatalf("v1 fixture carries v2 engine metadata: engine=%q dpor=%v", tr.Engine, tr.DPOR)
	}
	res, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict {
		t.Fatalf("v1 trace did not reproduce: %d mismatches, snapshot=%v recorded=%v",
			res.Mismatches, res.Run.Snapshot, tr.Snapshot)
	}
	if res.Mismatches != 0 {
		t.Fatalf("v1 trace replayed with %d mismatches", res.Mismatches)
	}
	if !res.Run.Diverged {
		t.Fatal("fixture records a divergent schedule; replay reported no divergence")
	}
}

// TestReplayRejectsMalformedTrace: Replay validates every configuration
// field it would otherwise trust, and the error names the field.
func TestReplayRejectsMalformedTrace(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*Trace)
	}{
		{"version", func(tr *Trace) { tr.Version = 99 }},
		{"mode", func(tr *Trace) { tr.Mode = "vanila" }},
		{"mode", func(tr *Trace) { tr.Mode = "" }},
		{"strategy", func(tr *Trace) { tr.Strategy = "bfs" }},
		{"cores", func(tr *Trace) { tr.Cores = 0 }},
		{"cores", func(tr *Trace) { tr.Cores = 65 }},
		{"watchpoints", func(tr *Trace) { tr.Watchpoints = -1 }},
		{"watchpoints", func(tr *Trace) { tr.Watchpoints = 1 << 20 }},
		{"max_ticks", func(tr *Trace) { tr.MaxTicks = 1_000_000_001 }},
		{"quantum", func(tr *Trace) { tr.Quantum = 1_000_000_001 }},
		{"timeout_ticks", func(tr *Trace) { tr.TimeoutTicks = 1_000_000_001 }},
		{"decisions", func(tr *Trace) { tr.MaxTicks = uint64(len(tr.Decisions)) - 1 }},
		{"roots", func(tr *Trace) { tr.Annotate = annotate.Options{Roots: make([]string, maxTraceRoots+1)} }},
		{"roots", func(tr *Trace) {
			tr.Annotate = annotate.Options{Roots: []string{strings.Repeat("f", maxTraceRootLen+1)}}
		}},
	}
	for _, c := range cases {
		tr, err := ReadTrace(filepath.Join("testdata", "trace_v1.json"))
		if err != nil {
			t.Fatal(err)
		}
		c.mut(tr)
		_, err = Replay(tr)
		if err == nil {
			t.Errorf("%s: malformed trace replayed without error", c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name the field", c.field, err)
		}
	}
}

// traceCampaignOnly lists the explore.Options fields a trace deliberately
// leaves out: they shape the campaign (how many schedules, which DFS
// children, how many workers), not the one run a trace records. Every
// other field must be a Trace field of the same name.
var traceCampaignOnly = []string{"Schedules", "Bound", "Horizon", "Parallelism"}

// TestTraceRecordsRunConfiguration records prevention-mode schedules of a
// program built by the annotation optimizer, under non-default options,
// and replays each from its trace file: every replay must reproduce its
// run exactly. It also checks that each explore.Options field is either
// recorded in Trace with the campaign's value or listed as campaign-only,
// so a new option cannot be dropped from traces silently.
func TestTraceRecordsRunConfiguration(t *testing.T) {
	b, err := bugs.ByID("NSS", "225525")
	if err != nil {
		t.Fatal(err)
	}
	subject, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Strategy: Random, Engine: EngineSnapshot, Schedules: 3, Seed: 5,
		Cores: 1, MaxTicks: 3_000_000, TimeoutTicks: 20_000, Watchpoints: 8,
		Parallelism: 1, Annotate: optimizerOptions(),
	}
	rep, err := Explore(subject, Prevention, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	for _, run := range rep.Runs {
		rec, err := RecordTrace(subject, Prevention, opts, run)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := rec.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if tr, err = ReadTrace(path); err != nil {
			t.Fatal(err)
		}
		if tr.Seed != run.Seed || tr.Quantum != run.Quantum {
			t.Errorf("run %d: trace seed %d quantum %d, run seed %d quantum %d",
				run.Index, tr.Seed, tr.Quantum, run.Seed, run.Quantum)
		}
		res, err := Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Run
		if !res.Verdict || res.Mismatches != 0 || got.Ticks != run.Ticks ||
			got.Violations != run.Violations || got.Prevented != run.Prevented {
			t.Errorf("run %d replayed with verdict=%v, %d mismatches, %d ticks, %d violations, %d prevented; recorded %d ticks, %d violations, %d prevented",
				run.Index, res.Verdict, res.Mismatches, got.Ticks, got.Violations, got.Prevented,
				run.Ticks, run.Violations, run.Prevented)
		}
	}
	// The checked-in v3 fixture, an optimizer-built prevention run that
	// also seeds FuzzReadTrace, replays cleanly too.
	fx, err := ReadTrace(filepath.Join("testdata", "trace_v3_optimized.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := Replay(fx); err != nil || !res.Verdict || res.Mismatches != 0 {
		t.Errorf("v3 fixture: replay %+v, error %v", res, err)
	}

	ov, tv := reflect.ValueOf(opts), reflect.ValueOf(*tr)
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		if slices.Contains(traceCampaignOnly, name) {
			continue
		}
		f := tv.FieldByName(name)
		switch {
		case !f.IsValid():
			t.Errorf("explore.Options.%s is neither a Trace field nor campaign-only", name)
		case name == "Seed" || name == "Quantum":
			// Per-run values, checked against each run above.
		default:
			if !reflect.DeepEqual(f.Interface(), ov.Field(i).Interface()) {
				t.Errorf("Trace.%s = %v, want the campaign's %v", name, f, ov.Field(i))
			}
		}
	}
}
