// Differential gate for the VM's tiered execution fast path: every
// workload and every corpus bug must produce bit-identical results under
// basic-block superstep dispatch and legacy one-instruction-at-a-time
// dispatch — same outputs, ticks, kernel stats, violation reports,
// latencies and final memory image. A recorded schedule trace must also
// replay identically on the fast path.
package kivati_test

import (
	"fmt"
	"reflect"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// diffScale keeps the full workload × config × dispatch matrix fast while
// still exercising every workload's concurrency structure.
const diffScale = workloads.Scale(0.1)

// runDispatchMode executes one configuration under the given dispatch mode
// with memory hashing on.
func runDispatchMode(t *testing.T, p *core.Program, cfg core.RunConfig, d vm.DispatchMode) *vm.Result {
	t.Helper()
	cfg.Dispatch = d
	cfg.HashMemory = true
	res, err := core.Run(p, cfg)
	if err != nil {
		t.Fatalf("dispatch %v: %v", d, err)
	}
	return res
}

// assertResultsIdentical requires two runs to be observably identical.
func assertResultsIdentical(t *testing.T, name string, step, fast *vm.Result) {
	t.Helper()
	if step.FastInstructions != 0 {
		t.Errorf("%s: legacy dispatch retired %d fast-path instructions, want 0", name, step.FastInstructions)
	}
	if step.Reason != fast.Reason || step.Ticks != fast.Ticks {
		t.Errorf("%s: (reason, ticks) step=(%q, %d) fast=(%q, %d)",
			name, step.Reason, step.Ticks, fast.Reason, fast.Ticks)
	}
	if !reflect.DeepEqual(step.Output, fast.Output) {
		t.Errorf("%s: output differs: step=%v fast=%v", name, step.Output, fast.Output)
	}
	if !reflect.DeepEqual(step.Latencies, fast.Latencies) {
		t.Errorf("%s: latencies differ (%d vs %d entries)", name, len(step.Latencies), len(fast.Latencies))
	}
	if !reflect.DeepEqual(step.Faults, fast.Faults) {
		t.Errorf("%s: faults differ: step=%v fast=%v", name, step.Faults, fast.Faults)
	}
	if !reflect.DeepEqual(step.Stats, fast.Stats) {
		t.Errorf("%s: kernel stats differ:\n step=%+v\n fast=%+v", name, step.Stats, fast.Stats)
	}
	if !reflect.DeepEqual(step.Violations, fast.Violations) {
		t.Errorf("%s: violation reports differ: step=%d fast=%d entries",
			name, len(step.Violations), len(fast.Violations))
	}
	if !reflect.DeepEqual(step.Snapshot, fast.Snapshot) {
		t.Errorf("%s: snapshots differ: step=%v fast=%v", name, step.Snapshot, fast.Snapshot)
	}
	if step.MemHash != fast.MemHash {
		t.Errorf("%s: final memory image differs: step=%#x fast=%#x", name, step.MemHash, fast.MemHash)
	}
}

// diffCores are the core counts the differential gates sweep: the default
// 2 (the paper's dual-core machine), and 3 and 4, where the chunked
// lockstep first has to prove blocks pairwise independent.
var diffCores = []int{2, 3, 4}

// TestFastPathDifferentialWorkloads runs the full performance suite under
// vanilla, prevention-base and prevention-optimized configurations on
// every diffCores machine, comparing legacy and fast dispatch pairwise.
func TestFastPathDifferentialWorkloads(t *testing.T) {
	for _, spec := range workloads.PerfSuite(diffScale) {
		p, err := core.Build(spec.Source)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		wl, err := p.SyncVarWhitelist(spec.FlagVars...)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		base := core.RunConfig{
			Seed:   1,
			Starts: spec.Starts,
		}
		if spec.Requests != nil {
			r := *spec.Requests
			base.Requests = &r
		}
		configs := []struct {
			name string
			mut  func(cfg core.RunConfig) core.RunConfig
		}{
			{"vanilla", func(cfg core.RunConfig) core.RunConfig {
				cfg.Vanilla = true
				return cfg
			}},
			{"prev-base", func(cfg core.RunConfig) core.RunConfig {
				cfg.Mode = kernel.Prevention
				cfg.Opt = kernel.OptBase
				return cfg
			}},
			{"prev-optimized", func(cfg core.RunConfig) core.RunConfig {
				cfg.Mode = kernel.Prevention
				cfg.Opt = kernel.OptOptimized
				cfg.Whitelist = wl
				return cfg
			}},
		}
		for _, cc := range configs {
			name := spec.Name + "/" + cc.name
			t.Run(name, func(t *testing.T) {
				for _, cores := range diffCores {
					name := fmt.Sprintf("%s/cores=%d", name, cores)
					cfg := cc.mut(base)
					cfg.Cores = cores
					if cfg.Requests != nil {
						// Each run needs its own request generator state.
						r := *cfg.Requests
						cfg.Requests = &r
					}
					step := runDispatchMode(t, p, cfg, vm.DispatchStep)
					cfg2 := cc.mut(base)
					cfg2.Cores = cores
					if cfg2.Requests != nil {
						r := *cfg2.Requests
						cfg2.Requests = &r
					}
					fast := runDispatchMode(t, p, cfg2, vm.DispatchFast)
					assertResultsIdentical(t, name, step, fast)
					if cc.name == "vanilla" && fast.FastInstructions == 0 {
						t.Errorf("%s: fast path never engaged on a watchpoint-free run", name)
					}
				}
			})
		}
	}
}

// TestFastPathChunkEngagement pins how much of the paper's 2-core
// measurement the chunked lockstep carries: over the bench suite's 12
// protect rows (each application vanilla and under optimized prevention,
// configured as the protect benchmark runs them), at least half of the
// fast instructions must retire in chunks. ChunkedInstructions counts only
// chunks retired while two or more cores were active, so windows in which
// one core runs alone do not count toward the half.
func TestFastPathChunkEngagement(t *testing.T) {
	var fast, chunked uint64
	for _, spec := range workloads.BenchSuite(diffScale) {
		var opts annotate.Options
		for _, s := range spec.Starts {
			opts.Roots = append(opts.Roots, s.Fn)
		}
		p, err := core.BuildWithOptions(spec.Source, opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		wl, err := p.SyncVarWhitelist(spec.FlagVars...)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, prevention := range []bool{false, true} {
			cfg := core.RunConfig{
				Mode:           kernel.Prevention,
				Opt:            kernel.OptBase,
				Vanilla:        true,
				NumWatchpoints: 4,
				Cores:          2,
				Seed:           1,
				MaxTicks:       400_000_000,
				TimeoutTicks:   10_000,
				Starts:         spec.Starts,
			}
			if prevention {
				cfg.Opt = kernel.OptOptimized
				cfg.Vanilla = false
				cfg.Whitelist = wl
			}
			if spec.Requests != nil {
				r := *spec.Requests
				cfg.Requests = &r
			}
			res, err := core.Run(p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			t.Logf("%s prevention=%v: %d of %d fast instructions chunked",
				spec.Name, prevention, res.ChunkedInstructions, res.FastInstructions)
			fast += res.FastInstructions
			chunked += res.ChunkedInstructions
		}
	}
	if fast == 0 || 2*chunked < fast {
		t.Errorf("%d of %d fast instructions retired in chunks, want at least half", chunked, fast)
	}
}

// TestFastPathDifferentialBugCorpus runs all 11 corpus bug fixtures under
// prevention, comparing dispatch modes over several seeds: the prevention
// engine's trap/undo/suspend behavior must be identical.
func TestFastPathDifferentialBugCorpus(t *testing.T) {
	for _, b := range bugs.Corpus() {
		b := b
		t.Run(b.App+"-"+b.ID, func(t *testing.T) {
			p, err := core.Build(b.ExploreSource)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				cfg := core.RunConfig{
					Mode:         kernel.Prevention,
					Opt:          kernel.OptBase,
					Seed:         seed,
					MaxTicks:     20_000_000,
					SnapshotVars: b.SnapshotVars,
				}
				step := runDispatchMode(t, p, cfg, vm.DispatchStep)
				fast := runDispatchMode(t, p, cfg, vm.DispatchFast)
				assertResultsIdentical(t, fmt.Sprintf("%s-%s/seed%d", b.App, b.ID, seed), step, fast)
			}
		})
	}
}

// TestFastPathReplay records a schedule trace under legacy dispatch and
// replays it under DispatchFast (fast path active alongside the policy):
// the replay must consume the trace with zero mismatches and reproduce the
// run bit-identically. This is the property that lets explore traces stay
// portable across interpreter tiers.
func TestFastPathReplay(t *testing.T) {
	spec := workloads.NSS(diffScale)
	p, err := core.Build(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		mut  func(cfg core.RunConfig) core.RunConfig
	}{
		{"vanilla", func(cfg core.RunConfig) core.RunConfig { cfg.Vanilla = true; return cfg }},
		{"prevention", func(cfg core.RunConfig) core.RunConfig {
			cfg.Mode = kernel.Prevention
			cfg.Opt = kernel.OptBase
			return cfg
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rec := vm.NewRecorder(nil)
			cfg := mode.mut(core.RunConfig{Seed: 1, Starts: spec.Starts})
			cfg.Policy = rec
			recorded := runDispatchMode(t, p, cfg, vm.DispatchStep)

			rep := vm.NewReplayer(rec.Chosen())
			cfg2 := mode.mut(core.RunConfig{Seed: 1, Starts: spec.Starts})
			cfg2.Policy = rep
			replayed := runDispatchMode(t, p, cfg2, vm.DispatchFast)

			if rep.Mismatches() != 0 {
				t.Errorf("replay mismatches = %d, want 0", rep.Mismatches())
			}
			if rep.Consumed() != len(rec.Chosen()) {
				t.Errorf("replay consumed %d of %d decisions", rep.Consumed(), len(rec.Chosen()))
			}
			if recorded.FastInstructions != 0 {
				t.Errorf("recording run used the fast path under DispatchStep")
			}
			if replayed.FastInstructions == 0 {
				t.Errorf("replay run never engaged the fast path under DispatchFast")
			}
			assertResultsIdentical(t, "replay-"+mode.name, recorded, replayed)
		})
	}
}

// TestFastRecordStepReplay is the inverse direction of TestFastPathReplay
// and the property Fast-mode exploration recording rests on: a schedule
// recorded while the fast path is active (DispatchFast, how the snapshot
// engine records access streams) must replay under legacy one-instruction
// dispatch with zero mismatches and a bit-identical outcome. It covers the
// whole performance suite and the 11-bug corpus.
func TestFastRecordStepReplay(t *testing.T) {
	type subject struct {
		name   string
		source string
		starts []core.Start
		cfgs   []core.RunConfig
	}
	var subjects []subject
	for _, spec := range workloads.PerfSuite(diffScale) {
		if spec.Requests != nil {
			// Open-loop request arrival draws from the machine RNG; the
			// recorder trace alone does not pin those draws, so the
			// record/replay property is scoped to closed workloads.
			continue
		}
		subjects = append(subjects, subject{
			name:   spec.Name,
			source: spec.Source,
			starts: spec.Starts,
			cfgs: []core.RunConfig{
				{Vanilla: true},
				{Mode: kernel.Prevention, Opt: kernel.OptBase},
			},
		})
	}
	for _, b := range bugs.Corpus() {
		subjects = append(subjects, subject{
			name:   b.App + "-" + b.ID,
			source: b.ExploreSource,
			cfgs: []core.RunConfig{
				{Vanilla: true},
				{Mode: kernel.Prevention, Opt: kernel.OptBase},
			},
		})
	}
	for _, s := range subjects {
		s := s
		t.Run(s.name, func(t *testing.T) {
			p, err := core.Build(s.source)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range s.cfgs {
				base.Seed = 1
				base.Starts = s.starts
				if base.MaxTicks == 0 {
					base.MaxTicks = 20_000_000
				}
				name := s.name + "/vanilla"
				if !base.Vanilla {
					name = s.name + "/prevention"
				}

				rec := vm.NewRecorder(nil)
				cfg := base
				cfg.Policy = rec
				recorded := runDispatchMode(t, p, cfg, vm.DispatchFast)

				rep := vm.NewReplayer(rec.Chosen())
				cfg2 := base
				cfg2.Policy = rep
				replayed := runDispatchMode(t, p, cfg2, vm.DispatchStep)

				if rep.Mismatches() != 0 {
					t.Errorf("%s: replay mismatches = %d, want 0", name, rep.Mismatches())
				}
				if rep.Consumed() != len(rec.Chosen()) {
					t.Errorf("%s: replay consumed %d of %d decisions", name, rep.Consumed(), len(rec.Chosen()))
				}
				// assertResultsIdentical pins the first argument to zero
				// fast-path instructions — that is the Step replay here.
				assertResultsIdentical(t, name, replayed, recorded)
			}
		})
	}
}
