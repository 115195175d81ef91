package explore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kivati/internal/bugs"
)

// corpusSchedules is the acceptance budget: the paper's central claim is
// checked over 500 explored schedules per bug and mode. Short mode keeps a
// meaningful slice for quick iteration.
func corpusSchedules(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 500
}

// corpusVanillaDivergences is, per bug, the exact number of the 500
// random schedules (seed 1) under which the vanilla program diverges from
// its serial result.
var corpusVanillaDivergences = map[string]int{
	"Apache/44402": 500, "Apache/21287": 500, "Apache/25520": 500,
	"NSS/341323": 499, "NSS/329072": 500, "NSS/225525": 500,
	"NSS/270689": 500, "NSS/169296": 345, "NSS/201134": 500,
	"MySQL/19938": 500, "MySQL/25306": 500,
}

// TestCorpusDifferential is the differential-oracle acceptance test: for
// every bug in the Table 6 corpus, random exploration must find at least
// one schedule where the vanilla program diverges from the serial result
// (the bug is real and schedule-dependent), and prevention mode must
// diverge on NO schedule (anything else is an engine bug). One divergent
// vanilla schedule per bug is then re-recorded as a decision trace and
// replayed, closing the reproducibility loop.
//
// At the full budget the vanilla divergence counts are pinned exactly: they
// are virtual-clock deterministic, so any change to them is a change in the
// engine, the scheduler or a fixture, never noise.
func TestCorpusDifferential(t *testing.T) {
	n := corpusSchedules(t)
	for _, b := range bugs.Corpus() {
		b := b
		t.Run(b.App+"_"+b.ID, func(t *testing.T) {
			t.Parallel()
			subject, err := BugSubject(b)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Strategy: Random, Schedules: n, Seed: 1}
			d, err := Differential(subject, opts)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range d.Serial {
				if v != 0 {
					t.Errorf("serial %s = %d, want 0 (witnesses must be silent serially)", name, v)
				}
			}
			if d.VanillaDivergences() == 0 {
				t.Errorf("vanilla: 0/%d schedules diverged; the bug never manifested", n)
			}
			if want := corpusVanillaDivergences[b.App+"/"+b.ID]; n == 500 && d.VanillaDivergences() != want {
				t.Errorf("vanilla: %d/%d schedules diverged, want exactly %d", d.VanillaDivergences(), n, want)
			}
			if got := d.PreventionDivergences(); got != 0 {
				t.Errorf("prevention: %d/%d schedules diverged from serial — engine bug", got, n)
			}

			// Reproducibility: record and replay one divergent schedule.
			var divergent *Run
			for i := range d.Vanilla.Runs {
				if d.Vanilla.Runs[i].Diverged {
					divergent = &d.Vanilla.Runs[i]
					break
				}
			}
			if divergent == nil {
				return
			}
			tr, err := RecordTrace(subject, Vanilla, opts, *divergent)
			if err != nil {
				t.Fatalf("RecordTrace: %v", err)
			}
			res, err := Replay(tr)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if res.Mismatches != 0 {
				t.Errorf("replay had %d decision mismatches, want 0", res.Mismatches)
			}
			if !res.Verdict {
				t.Errorf("replay verdict false: snapshot %v, trace snapshot %v",
					res.Run.Snapshot, tr.Snapshot)
			}
			if !res.Run.Diverged {
				t.Error("replayed schedule no longer diverges")
			}
		})
	}
}

// TestDeterminismAcrossParallelism locks in the contract that exploration
// output is byte-identical at any worker-pool size, for both strategies.
func TestDeterminismAcrossParallelism(t *testing.T) {
	b, err := bugs.ByID("NSS", "341323")
	if err != nil {
		t.Fatal(err)
	}
	subject, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Random, DFS} {
		opts := Options{Strategy: strat, Schedules: 40, Seed: 7, Bound: 2}
		var baseline []byte
		for _, par := range []int{1, 4, 8} {
			opts.Parallelism = par
			d, err := Differential(subject, opts)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", strat, par, err)
			}
			enc, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			if baseline == nil {
				baseline = enc
				continue
			}
			if !bytes.Equal(enc, baseline) {
				t.Errorf("%s: report at parallelism %d differs from parallelism 1", strat, par)
			}
		}
	}
}

// TestDifferentialRecyclesImages: closing a campaign hands its machine
// images to a process-wide pool that concurrent campaigns draw from. Two
// subjects explore side by side at parallelism 4, twice each; the second
// round builds its sessions on recycled images and must reproduce the
// first round's reports exactly. Run under -race it also checks the pool
// hand-off between goroutines.
func TestDifferentialRecyclesImages(t *testing.T) {
	for _, id := range [][2]string{{"NSS", "341323"}, {"Apache", "44402"}} {
		id := id
		t.Run(id[0]+"_"+id[1], func(t *testing.T) {
			t.Parallel()
			b, err := bugs.ByID(id[0], id[1])
			if err != nil {
				t.Fatal(err)
			}
			subject, err := BugSubject(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []Strategy{Random, DFS} {
				opts := Options{Strategy: strat, Schedules: 24, Seed: 3, Bound: 2, Parallelism: 4}
				var first []byte
				for round := 0; round < 2; round++ {
					d, err := Differential(subject, opts)
					if err != nil {
						t.Fatalf("%s round %d: %v", strat, round, err)
					}
					enc, err := json.Marshal(d)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = enc
					} else if !bytes.Equal(enc, first) {
						t.Errorf("%s: report on recycled images differs from the first round", strat)
					}
				}
			}
		})
	}
}

// TestDFSEnumeration checks the structure of the preemption-bounded search:
// the root schedule is the empty prefix (pure round-robin), every explored
// prefix respects the deviation bound, no prefix repeats, and the budget is
// honored.
func TestDFSEnumeration(t *testing.T) {
	b, err := bugs.ByID("NSS", "225525")
	if err != nil {
		t.Fatal(err)
	}
	subject, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2
	rep, err := Explore(subject, Vanilla, Options{
		Strategy: DFS, Schedules: 50, Bound: bound, Horizon: 16, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 50 {
		t.Fatalf("got %d runs, want 50", len(rep.Runs))
	}
	if len(rep.Runs[0].Prefix) != 0 {
		t.Errorf("first DFS schedule has prefix %v, want the empty prefix", rep.Runs[0].Prefix)
	}
	seen := map[string]bool{}
	for _, r := range rep.Runs {
		if d := deviations(r.Prefix); d > bound {
			t.Errorf("prefix %v has %d deviations, bound is %d", r.Prefix, d, bound)
		}
		key, _ := json.Marshal(r.Prefix)
		if seen[string(key)] {
			t.Errorf("prefix %v explored twice", r.Prefix)
		}
		seen[string(key)] = true
		if r.Index != len(seen)-1 {
			t.Errorf("run has index %d, want %d", r.Index, len(seen)-1)
		}
	}
}

// TestReplayDetectsTamper ensures a trace whose decisions no longer match
// the machine is reported as a failed replay rather than silently accepted.
func TestReplayDetectsTamper(t *testing.T) {
	b, err := bugs.ByID("NSS", "225525")
	if err != nil {
		t.Fatal(err)
	}
	subject, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: Random, Schedules: 10, Seed: 3}
	rep, err := Explore(subject, Vanilla, opts)
	if err != nil {
		t.Fatal(err)
	}
	var run *Run
	for i := range rep.Runs {
		if rep.Runs[i].Diverged {
			run = &rep.Runs[i]
			break
		}
	}
	if run == nil {
		t.Skip("no divergent run in the small budget")
	}
	tr, err := RecordTrace(subject, Vanilla, opts, *run)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the decisions: the replay runs out of the recorded schedule
	// and must count mismatches.
	tr.Decisions = tr.Decisions[:len(tr.Decisions)/4]
	res, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches == 0 {
		t.Error("truncated trace replayed with 0 mismatches")
	}
	if res.Verdict {
		t.Error("truncated trace still reported a clean verdict")
	}
}

// TestTraceRoundTripsThroughJSON checks WriteFile/ReadTrace preserve the
// trace and the reloaded trace still replays.
func TestTraceRoundTripsThroughJSON(t *testing.T) {
	b, err := bugs.ByID("NSS", "329072")
	if err != nil {
		t.Fatal(err)
	}
	subject, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: Random, Schedules: 5, Seed: 11}
	rep, err := Explore(subject, Vanilla, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTrace(subject, Vanilla, opts, rep.Runs[0])
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict || res.Mismatches != 0 {
		t.Errorf("reloaded trace: verdict=%v mismatches=%d", res.Verdict, res.Mismatches)
	}
}

// TestBugSubjectRequiresFixture: a bug with no exploration fixture is an
// explicit error, not a silent skip.
func TestBugSubjectRequiresFixture(t *testing.T) {
	if _, err := BugSubject(&bugs.Bug{App: "X", ID: "0"}); err == nil {
		t.Error("BugSubject accepted a bug with no fixture")
	}
}

// TestOptionsRejectNegativeCounts: a negative schedule budget, DFS bound,
// horizon or worker count is an error that names the field, not a panic, a
// silent one-schedule run or a silent GOMAXPROCS-wide pool.
func TestOptionsRejectNegativeCounts(t *testing.T) {
	b, err := bugs.ByID("NSS", "341323")
	if err != nil {
		t.Fatal(err)
	}
	subject, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"Schedules -1", Options{Schedules: -1}},
		{"Bound -1", Options{Strategy: DFS, Bound: -1}},
		{"Horizon -2", Options{Strategy: DFS, Horizon: -2}},
		{"Parallelism -2", Options{Parallelism: -2}},
	} {
		_, err := Differential(subject, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: got error %v, want one naming the field", tc.field, err)
		}
	}
}
