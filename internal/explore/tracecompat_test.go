package explore

import (
	"path/filepath"
	"strings"
	"testing"
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
