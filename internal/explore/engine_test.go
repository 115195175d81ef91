package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"kivati/internal/bugs"
	"kivati/internal/corpusgen"
)

func subjectByName(t *testing.T, app, id string) *Subject {
	t.Helper()
	b, err := bugs.ByID(app, id)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BugSubject(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scrubEngineMeta clears the engine counters, which the step reference
// does not produce, and the per-run decision-cost telemetry (same-pick
// continues, delta/full arms), which depends on the dispatch tier — the
// reference interpreter never opens a superstep window — so it is engine
// metadata, not oracle output.
func scrubEngineMeta(d *DiffReport) {
	for _, r := range []*Report{d.Vanilla, d.Prevention} {
		r.Stats = nil
		for i := range r.Runs {
			r.Runs[i].SamePickContinues = 0
			r.Runs[i].DeltaArms = 0
			r.Runs[i].FullArms = 0
		}
	}
}

// TestEngineEquivalence is the engine differential: the engine (session
// reuse, Fast-mode recording, branch-point resume) must produce a
// byte-identical report to the step reference — fresh step-interpreter
// runs, every prefix re-executed — with the same runs, decision counts and
// verdicts, modulo the engine metadata fields. The multi-core DFS cases
// resume mid-run snapshots on 2 and 3 cores.
func TestEngineEquivalence(t *testing.T) {
	type tc struct {
		subject *Subject
		opts    Options
	}
	var cases []tc
	for _, strat := range []Strategy{Random, DFS} {
		for _, s := range []*Subject{subjectByName(t, "NSS", "341323"), subjectByName(t, "Apache", "25520")} {
			cases = append(cases, tc{s, Options{Strategy: strat, Schedules: 40, Seed: 7, Bound: 2, Parallelism: 2}})
		}
	}
	// Multi-core DFS on generated programs and on every corpus bug at 2 and
	// 3 cores.
	type multiCase struct {
		seed         int64 // generator seed; 0 = hand-written corpus bug
		index, cores int
		app, id      string
	}
	multi := []multiCase{
		{6, 5, 2, "", ""}, {6, 6, 2, "", ""}, {6, 7, 2, "", ""}, {6, 8, 2, "", ""},
		{1, 5, 3, "", ""}, {1, 7, 3, "", ""}, {5, 6, 3, "", ""},
	}
	for _, cores := range []int{2, 3} {
		for _, b := range bugs.Corpus() {
			multi = append(multi, multiCase{0, 0, cores, b.App, b.ID})
		}
	}
	for _, m := range multi {
		var s *Subject
		if m.seed == 0 {
			s = subjectByName(t, m.app, m.id)
		} else {
			gen := corpusgen.Options{Count: 10, Seed: m.seed}
			s = GenSubject(corpusgen.One(gen, m.index), gen.Count)
		}
		cases = append(cases, tc{s, Options{Strategy: DFS, Schedules: 30, Seed: m.seed, Bound: 2, Horizon: 32, Cores: m.cores, Parallelism: 2}})
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/seed%d/cores%d", c.subject.Name, c.opts.Strategy, c.opts.Seed, max(c.opts.Cores, 1))
		t.Run(name, func(t *testing.T) {
			d, err := Differential(c.subject, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.opts.Cores > 1 && d.Vanilla.Stats.Resumed+d.Prevention.Stats.Resumed == 0 {
				t.Error("multi-core DFS resumed no schedule from a branch-point snapshot")
			}
			ref, err := referenceDifferential(c.subject, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			scrubEngineMeta(d)
			scrubEngineMeta(ref)
			got, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("engine report differs from the step reference\nreference: %s\nengine:    %s", want, got)
			}
		})
	}
}

// TestDPORSoundnessOnCorpus is the empirical gate behind the approximate
// swap-redundancy rule: over corpus bugs explored to DFS frontier
// exhaustion, the pruned search must report every bug the unpruned search
// reports (a vanilla divergence somewhere), identical prevention verdicts
// (zero divergences), and — whenever anything was pruned — strictly fewer
// executed schedules. The suite as a whole must prune something, or the
// optimization is dead weight.
func TestDPORSoundnessOnCorpus(t *testing.T) {
	corpus := bugs.Corpus()
	if testing.Short() {
		corpus = corpus[:4]
	}
	totalPruned := 0
	for _, b := range corpus {
		b := b
		t.Run(b.App+"_"+b.ID, func(t *testing.T) {
			s, err := BugSubject(b)
			if err != nil {
				t.Fatal(err)
			}
			// A budget far above the bound-1 frontier size, so both searches
			// exhaust the tree rather than hit the schedule cap.
			opts := Options{Strategy: DFS, Schedules: 2000, Bound: 1, Horizon: 24, Parallelism: 2}

			full, err := Differential(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			pruned := opts
			pruned.DPOR = true
			dp, err := Differential(s, pruned)
			if err != nil {
				t.Fatal(err)
			}

			if len(full.Vanilla.Runs) >= opts.Schedules {
				t.Fatalf("unpruned search hit the %d-schedule budget; raise it so both sides exhaust the frontier", opts.Schedules)
			}
			if full.VanillaDivergences() > 0 && dp.VanillaDivergences() == 0 {
				t.Errorf("DPOR pruned away the bug: unpruned found %d divergent schedules, pruned found 0",
					full.VanillaDivergences())
			}
			if got := dp.PreventionDivergences(); got != 0 {
				t.Errorf("pruned prevention sweep diverged %d times, want 0", got)
			}
			nPruned := dp.Vanilla.Stats.Pruned + dp.Prevention.Stats.Pruned
			totalPruned += nPruned
			if nPruned > 0 {
				if got, want := len(dp.Vanilla.Runs)+len(dp.Prevention.Runs),
					len(full.Vanilla.Runs)+len(full.Prevention.Runs); got >= want {
					t.Errorf("DPOR pruned %d children but executed %d schedules vs %d unpruned",
						nPruned, got, want)
				}
			}
			t.Logf("unpruned=%d+%d pruned=%d+%d skipped=%d",
				len(full.Vanilla.Runs), len(full.Prevention.Runs),
				len(dp.Vanilla.Runs), len(dp.Prevention.Runs), nPruned)
		})
	}
	if totalPruned == 0 {
		t.Error("DPOR pruned nothing across the corpus; the redundancy check never fires")
	}
}

// TestDPOROptionValidation pins the DPOR prerequisites — dfs strategy,
// single core — and that an engine other than the snapshot engine is
// refused by name.
func TestDPOROptionValidation(t *testing.T) {
	s := subjectByName(t, "NSS", "341323")
	cases := []struct {
		name string
		opts Options
	}{
		{"random strategy", Options{Strategy: Random, Schedules: 1, DPOR: true}},
		{"unknown engine", Options{Strategy: DFS, Schedules: 1, Engine: "replay"}},
		{"multi-core", Options{Strategy: DFS, Schedules: 1, DPOR: true, Cores: 2}},
	}
	for _, c := range cases {
		_, err := Differential(s, c.opts)
		if err == nil {
			t.Errorf("%s: accepted, want an error", c.name)
		} else if c.opts.Engine != "" && !strings.Contains(err.Error(), `"replay"`) {
			t.Errorf("%s: error %q does not name the engine", c.name, err)
		}
	}
}
