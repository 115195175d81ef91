package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/core"
	"kivati/internal/corpusgen"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

// capturePolicy replays a recorded decision trace and captures a
// copy-on-write snapshot inside Pick at every absolute decision index
// that is a multiple of every — the quiescent branch points the snapshot
// engine's framePolicy keys on. The decision at a capture's index has not
// been consumed yet, so a resume from it replays the chosen tail starting
// there.
type capturePolicy struct {
	t     *testing.T
	m     *vm.Machine
	inner *vm.Replayer
	every uint64
	snaps map[uint64]*vm.Snapshot
}

func newCapturePolicy(t *testing.T, m *vm.Machine, chosen []int, every int) *capturePolicy {
	return &capturePolicy{t: t, m: m, inner: vm.NewReplayer(chosen), every: uint64(every), snaps: map[uint64]*vm.Snapshot{}}
}

func (p *capturePolicy) Pick(sp vm.SchedPoint) int {
	if sp.Seq%p.every == 0 {
		snap, err := p.m.Snapshot()
		if err != nil {
			p.t.Errorf("mid-run snapshot at decision %d: %v", sp.Seq, err)
		}
		p.snaps[sp.Seq] = snap
	}
	return p.inner.Pick(sp)
}

// genConfig is the snapshot engine's run configuration for one generated
// Arrays program: prevention kernel (or the vanilla binary), fast
// dispatch. The ring-buffer decoy's dynamic indices give its blocks an
// Unbounded static footprint, so every fast-path visit under prevention
// demotes to checked mode.
func genConfig(t *testing.T, p *corpusgen.Program, cores int, vanilla bool) (*core.Program, core.RunConfig) {
	t.Helper()
	prog, err := core.BuildWithOptions(p.Source, annotate.Options{})
	if err != nil {
		t.Fatalf("%s: build: %v", p.Name, err)
	}
	return prog, core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		Vanilla:        vanilla,
		NumWatchpoints: 16,
		Cores:          cores,
		Seed:           1,
		MaxTicks:       4_000_000,
		TimeoutTicks:   10_000,
		Costs:          vm.DefaultCosts(),
		SnapshotVars:   p.SnapshotVars,
		Dispatch:       vm.DispatchFast,
		HashMemory:     true,
	}
}

// genSession builds a session in genConfig's configuration.
func genSession(t *testing.T, p *corpusgen.Program, cores int, vanilla bool) *core.Session {
	t.Helper()
	prog, cfg := genConfig(t, p, cores, vanilla)
	s, err := core.NewSession(prog, cfg)
	if err != nil {
		t.Fatalf("%s: session: %v", p.Name, err)
	}
	return s
}

// sameOutcome reports how a resumed or replayed run differs from the
// uninterrupted one on every piece of machine state the snapshot carries:
// observables, ticks, kernel stats, memory image and demotion counters.
func sameOutcome(t *testing.T, what string, got, want *vm.Result) {
	t.Helper()
	if got.Reason != "completed" {
		t.Errorf("%s: %s (ticks=%d)", what, got.Reason, got.Ticks)
	}
	if !reflect.DeepEqual(got.Snapshot, want.Snapshot) {
		t.Errorf("%s: snapshot = %v, want %v", what, got.Snapshot, want.Snapshot)
	}
	if got.Ticks != want.Ticks {
		t.Errorf("%s: ticks = %d, want %d", what, got.Ticks, want.Ticks)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats = %+v, want %+v", what, got.Stats, want.Stats)
	}
	if got.MemHash != want.MemHash {
		t.Errorf("%s: memory hash = %#x, want %#x", what, got.MemHash, want.MemHash)
	}
	if got.Demotions != want.Demotions {
		t.Errorf("%s: demotions = %+v, want %+v", what, got.Demotions, want.Demotions)
	}
}

// TestSessionSnapshotRestoreGenerated pins vm.Snapshot/Restore against a
// generated program that hits the Unbounded footprint escape, on 1, 2 and
// 3 cores in both modes: a full recorded run (under prevention) must count
// Unbounded demotions; a replay capturing branch-point snapshots every k
// decisions must reproduce it; and resuming from each capture with the
// decision tail must land on the uninterrupted run's final state exactly —
// observables, ticks, kernel stats, memory hash and the demotion counters,
// which ride the snapshot like every other piece of machine state. On
// more than one core this is what lets the DFS resume mid-run snapshots:
// the snapshot carries every core's register file and the pending
// watchpoint-adoption flag, so resumed cores adopt canonical state exactly
// where the uninterrupted run did.
func TestSessionSnapshotRestoreGenerated(t *testing.T) {
	// resumeEvery is a prime stride, so the branch points do not line up
	// with the quantum or the program's loop structure; on this program it
	// yields about 30 (vanilla) to 130 (prevention) resumes per run.
	const resumeEvery = 53
	p := corpusgen.One(corpusgen.Options{Count: 8, Seed: 21, Arrays: true}, 0)
	const quantum, seed = 17, 7
	for _, cores := range []int{1, 2, 3} {
		for _, vanilla := range []bool{false, true} {
			cores, vanilla := cores, vanilla
			mode := "prevention"
			if vanilla {
				mode = "vanilla"
			}
			t.Run(fmt.Sprintf("%s/cores%d", mode, cores), func(t *testing.T) {
				t.Parallel()
				s := genSession(t, p, cores, vanilla)
				rng := rand.New(rand.NewSource(99))
				rec := vm.NewRecorder(vm.PolicyFunc(func(sp vm.SchedPoint) int {
					return rng.Intn(len(sp.Runnable))
				}))
				full, err := s.RunSchedule(rec, quantum, seed)
				if err != nil {
					t.Fatal(err)
				}
				if full.Reason != "completed" {
					t.Fatalf("full run: %s (ticks=%d)", full.Reason, full.Ticks)
				}
				if !vanilla && full.Demotions.Unbounded == 0 {
					t.Fatalf("full run saw no Unbounded demotions; the Arrays decoy should force the footprint escape (demotions=%+v)", full.Demotions)
				}
				chosen := rec.Chosen()
				if len(chosen) < 4*resumeEvery {
					t.Fatalf("only %d decisions recorded; need mid-run branch points", len(chosen))
				}

				// Replay the same schedule, capturing snapshots. The restore
				// of the initial snapshot must also have reset the counters:
				// if they leaked across runs, this run would report 2x.
				cp := newCapturePolicy(t, s.Machine(), chosen, resumeEvery)
				replay, err := s.RunSchedule(cp, quantum, seed)
				if err != nil {
					t.Fatal(err)
				}
				if cp.inner.Mismatches() != 0 {
					t.Fatalf("replay run: %d decision mismatches", cp.inner.Mismatches())
				}
				sameOutcome(t, "replay", replay, full)

				// Resume from every branch point with only the decision tail:
				// the snapshot carries clock, RNG, quantum, per-core state and
				// counters, so each resumed run must land on the identical
				// final state.
				for d, snap := range cp.snaps {
					tail := vm.NewReplayer(chosen[d:])
					res, err := s.RunFrom(snap, tail)
					if err != nil {
						t.Fatal(err)
					}
					if tail.Mismatches() != 0 || tail.Consumed() != len(chosen)-int(d) {
						t.Errorf("resume at %d consumed %d/%d tail decisions with %d mismatches",
							d, tail.Consumed(), len(chosen)-int(d), tail.Mismatches())
					}
					sameOutcome(t, fmt.Sprintf("resume at %d", d), res, full)
				}
			})
		}
	}
}

// TestSessionSnapshotPortableAcrossSessions: a branch-point snapshot taken
// in one session resumes in a fresh session of the same program and
// configuration (the portability contract vm.Snapshot documents), again
// reproducing the recorded final state.
func TestSessionSnapshotPortableAcrossSessions(t *testing.T) {
	p := corpusgen.One(corpusgen.Options{Count: 8, Seed: 33, Arrays: true}, 2)
	s := genSession(t, p, 1, false)
	const quantum, seed = 23, 5

	rng := rand.New(rand.NewSource(4))
	rec := vm.NewRecorder(vm.PolicyFunc(func(sp vm.SchedPoint) int {
		return rng.Intn(len(sp.Runnable))
	}))
	full, err := s.RunSchedule(rec, quantum, seed)
	if err != nil {
		t.Fatal(err)
	}
	if full.Reason != "completed" {
		t.Fatalf("full run: %s", full.Reason)
	}
	chosen := rec.Chosen()
	if len(chosen) < 2 {
		t.Fatalf("only %d decisions recorded", len(chosen))
	}
	mid := len(chosen) / 2
	cp := newCapturePolicy(t, s.Machine(), chosen, mid)
	if _, err := s.RunSchedule(cp, quantum, seed); err != nil {
		t.Fatal(err)
	}
	snap := cp.snaps[uint64(mid)]
	if snap == nil {
		t.Fatal("capture policy never reached the midpoint decision")
	}

	other := genSession(t, p, 1, false)
	res, err := other.RunFrom(snap, vm.NewReplayer(chosen[mid:]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Snapshot, full.Snapshot) || res.Ticks != full.Ticks ||
		res.MemHash != full.MemHash || res.Demotions != full.Demotions {
		t.Errorf("cross-session resume diverged: snapshot=%v ticks=%d hash=%#x demotions=%+v, want %v/%d/%#x/%+v",
			res.Snapshot, res.Ticks, res.MemHash, res.Demotions,
			full.Snapshot, full.Ticks, full.MemHash, full.Demotions)
	}
}

// TestSessionCloseRecycles: every run releases its machine image for the
// next one to reuse — a session through Close (twice is a no-op), core.Run
// before it returns. Runs of one schedule built on those recycled images,
// whenever the pool kept them, reach the same final state: two sessions,
// then two back-to-back core.Run calls, then a session on the image the
// last core.Run recycled.
func TestSessionCloseRecycles(t *testing.T) {
	p := corpusgen.One(corpusgen.Options{Count: 8, Seed: 21, Arrays: true}, 1)
	const quantum, seed = 19, 3
	policy := func() vm.SchedulePolicy {
		rng := rand.New(rand.NewSource(8))
		return vm.PolicyFunc(func(sp vm.SchedPoint) int { return rng.Intn(len(sp.Runnable)) })
	}
	session := func() (*vm.Result, error) {
		s := genSession(t, p, 1, false)
		res, err := s.RunSchedule(policy(), quantum, seed)
		s.Close()
		s.Close()
		return res, err
	}
	run := func() (*vm.Result, error) {
		prog, cfg := genConfig(t, p, 1, false)
		cfg.Seed = seed
		cfg.Costs.Quantum = quantum
		cfg.Policy = policy()
		return core.Run(prog, cfg)
	}
	var first *vm.Result
	for i, r := range []struct {
		name string
		run  func() (*vm.Result, error)
	}{
		{"session", session},
		{"session after Close", session},
		{"core.Run", run},
		{"second core.Run", run},
		{"session after core.Run", session},
	} {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if i == 0 {
			first = res
			continue
		}
		sameOutcome(t, r.name, res, first)
	}
}

// TestSessionResultsOwnMissedByAR: a result a caller holds survives later
// runs of its session. The kernel's Stats.MissedByAR map is rewritten in
// place on every restore, so a result that shared it would change under
// the caller when the session resumes a snapshot.
func TestSessionResultsOwnMissedByAR(t *testing.T) {
	b, err := bugs.ByID("NSS", "341323")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Build(b.ExploreSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(prog, core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		NumWatchpoints: 1,
		Cores:          1,
		Seed:           1,
		MaxTicks:       4_000_000,
		SnapshotVars:   b.SnapshotVars,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var snaps []*vm.Snapshot
	first, err := s.RunSchedule(vm.PolicyFunc(func(vm.SchedPoint) int {
		snap, err := s.Machine().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		return 0
	}), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := maps.Clone(first.Stats.MissedByAR)
	if len(want) == 0 || len(snaps) < 2 {
		t.Fatalf("fixture missed no AR (%v) or made %d decisions; the test needs both", want, len(snaps))
	}
	if _, err := s.RunFrom(snaps[len(snaps)/2], vm.PolicyFunc(func(sp vm.SchedPoint) int {
		return len(sp.Runnable) - 1
	})); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Stats.MissedByAR, want) {
		t.Errorf("first result's MissedByAR changed under a later RunFrom: %v, want %v", first.Stats.MissedByAR, want)
	}
}
