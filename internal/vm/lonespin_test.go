package vm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"kivati/internal/bugs"
	"kivati/internal/compile"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/trace"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// spinProgram is a one-core program whose main yield-spins while its
// workers are blocked.
type spinProgram struct {
	name     string
	src      string
	prevent  bool   // annotate and run under prevention
	maxTicks uint64 // 0 = the default cap
}

var spinPrograms = []spinProgram{
	{
		// A pure-read spin while both workers sleep: the wake events end it.
		name: "sleep-wake",
		src: `
int done;
int total;
void worker(int n) {
    sleep(n);
    total = total + n;
    done = done + 1;
}
void main() {
    spawn(worker, 20000);
    spawn(worker, 35000);
    while (done < 2) {
        yield();
    }
    print(total);
}`,
	},
	{
		// A spin that stores a changing counter every cycle: its
		// registers repeat at each yield, its memory does not.
		name: "store-spin",
		src: `
int done;
int spins;
int flag;
void worker(int n) {
    sleep(n);
    done = done + 1;
}
void main() {
    spawn(worker, 20000);
    spawn(worker, 30000);
    while (done < 2) {
        spins = spins + 1;
        flag = 0;
        yield();
    }
    print(spins);
}`,
	},
	{
		// Under prevention a worker writing x inside the other's atomic
		// region is suspended until its 10k-tick timeout fires, while the
		// region's owner sleeps: the spin ends at the timeout event.
		name:    "trap-timeout",
		prevent: true,
		src: `
int x;
int done;
void owner(int n) {
    int t;
    t = x;
    sleep(n);
    x = t + 1;
    done = done + 1;
}
void remote(int n) {
    sleep(n);
    x = x + 10;
    done = done + 1;
}
void main() {
    spawn(owner, 40000);
    spawn(remote, 200);
    while (done < 2) {
        yield();
    }
    print(x);
}`,
	},
	{
		// The workers outsleep the tick cap: the spin ends at MaxTicks.
		name:     "max-ticks",
		maxTicks: 30_000,
		src: `
int done;
void worker(int n) {
    sleep(n);
    done = done + 1;
}
void main() {
    spawn(worker, 100000);
    while (done < 1) {
        yield();
    }
}`,
	},
}

// spinConfig is the one-core run configuration of p under dispatch d.
func spinConfig(p spinProgram, d vm.DispatchMode) core.RunConfig {
	return core.RunConfig{
		Mode:       kernel.Prevention,
		Opt:        kernel.OptBase,
		Vanilla:    !p.prevent,
		Cores:      1,
		Seed:       1,
		MaxTicks:   p.maxTicks,
		Costs:      vm.Costs{Quantum: 40},
		Dispatch:   d,
		HashMemory: true,
	}
}

// spinRun is what the Step-vs-Fast comparison reads of a run.
type spinRun struct {
	stats   kernel.Stats
	ticks   uint64
	reason  string
	memHash uint64
	output  []int64
	faults  []string
}

func spinRunOf(res *vm.Result) spinRun {
	return spinRun{*res.Stats, res.Ticks, res.Reason, res.MemHash, res.Output, res.Faults}
}

// runSpin runs p once under policy from a fresh session and returns the
// run and the cycles the skip skipped.
func runSpin(t *testing.T, prog *core.Program, p spinProgram, d vm.DispatchMode, policy vm.SchedulePolicy) (spinRun, vm.Telemetry, uint64) {
	t.Helper()
	s, err := core.NewSession(prog, spinConfig(p, d))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunSchedule(policy, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	return spinRunOf(res), res.Telemetry, s.Machine().SkippedSpinCycles()
}

// TestLoneSpinSkip holds the lone-spin skip (spin.go) to the reference
// stepper, which never skips: Stats, ticks, memory and output must be
// bit-identical, a restored run must equal a fresh one, and every counter
// must be one the skip advances. It also shows where the skip engages: on
// pure-read spins and on the explore corpus, never on a spin that stores
// and never on the two-core protect rows.
func TestLoneSpinSkip(t *testing.T) {
	for _, p := range spinPrograms {
		t.Run(p.name, func(t *testing.T) {
			prog, err := core.Build(p.src)
			if err != nil {
				t.Fatal(err)
			}
			step, _, stepSkips := runSpin(t, prog, p, vm.DispatchStep, nil)
			fast, _, skips := runSpin(t, prog, p, vm.DispatchFast, nil)
			if stepSkips != 0 {
				t.Errorf("DispatchStep skipped %d cycles, want 0", stepSkips)
			}
			if !reflect.DeepEqual(step, fast) {
				t.Errorf("step and fast runs differ:\nstep %+v\nfast %+v", step, fast)
			}
			if len(fast.faults) > 0 {
				t.Fatalf("faults: %v", fast.faults)
			}
			switch p.name {
			case "store-spin":
				if skips != 0 {
					t.Errorf("a spin that stores skipped %d cycles, want 0", skips)
				}
			default:
				if skips == 0 {
					t.Errorf("a pure-read spin skipped no cycle")
				}
			}
			switch p.name {
			case "trap-timeout":
				if fast.stats.Timeouts == 0 {
					t.Errorf("no suspension timed out: the case does not end at a timeout")
				}
			case "max-ticks":
				if fast.reason != "max-ticks" {
					t.Errorf("reason %q, want max-ticks", fast.reason)
				}
			}
		})
	}

	t.Run("restore", func(t *testing.T) {
		// A snapshot taken at the first decision, before the spin, restored
		// onto another session's machine, must finish exactly as the
		// uninterrupted run does, with the skip engaged after the restore.
		p := spinPrograms[0]
		prog, err := core.Build(p.src)
		if err != nil {
			t.Fatal(err)
		}
		first := vm.PolicyFunc(func(vm.SchedPoint) int { return 0 })
		fresh, freshTel, _ := runSpin(t, prog, p, vm.DispatchFast, first)
		src, err := core.NewSession(prog, spinConfig(p, vm.DispatchFast))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		var snap *vm.Snapshot
		policy := vm.PolicyFunc(func(sp vm.SchedPoint) int {
			if sp.Seq == 0 {
				if snap, err = src.Machine().Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			return 0
		})
		if _, err := src.RunSchedule(policy, 40, 1); err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatal("the run made no decision to snapshot at")
		}
		dst, err := core.NewSession(prog, spinConfig(p, vm.DispatchFast))
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		if _, err := dst.RunSchedule(first, 40, 1); err != nil { // reused, as explore reuses sessions
			t.Fatal(err)
		}
		before := dst.Machine().SkippedSpinCycles()
		res, err := dst.RunFrom(snap, first)
		if err != nil {
			t.Fatal(err)
		}
		if got := spinRunOf(res); !reflect.DeepEqual(got, fresh) || res.Telemetry != freshTel {
			t.Errorf("restored run differs from a fresh one:\nfresh    %+v %+v\nrestored %+v %+v",
				fresh, freshTel, got, res.Telemetry)
		}
		if dst.Machine().SkippedSpinCycles() == before {
			t.Error("the restored run skipped no cycle")
		}
	})

	t.Run("counters", func(t *testing.T) {
		// Reflection guard: the skip advances every uint64 counter of
		// kernel.Stats and of the telemetry, and they hold no counter of
		// another type (MissedByAR moves only with MissedARs, which the
		// skip never lets move).
		prog, err := core.Build(spinPrograms[0].src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSession(prog, spinConfig(spinPrograms[0], vm.DispatchFast))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctrs, stats, tel := s.Machine().SpinCounters()
		got := map[*uint64]bool{}
		for _, p := range ctrs {
			got[p] = true
		}
		var want []*uint64
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			for i := range v.NumField() {
				f, name := v.Field(i), path+v.Type().Field(i).Name
				switch {
				case f.Kind() == reflect.Uint64:
					want = append(want, f.Addr().Interface().(*uint64))
					if !got[want[len(want)-1]] {
						t.Errorf("%s is not a counter the skip advances", name)
					}
				case f.Kind() == reflect.Struct:
					walk(f, name+".")
				case name == "Stats.MissedByAR":
				default:
					t.Errorf("%s (%s) is a field the skip cannot advance", name, f.Type())
				}
			}
		}
		walk(reflect.ValueOf(stats).Elem(), "Stats.")
		walk(reflect.ValueOf(tel).Elem(), "Telemetry.")
		if len(ctrs) != len(want) {
			t.Errorf("the skip advances %d counters, want %d", len(ctrs), len(want))
		}
	})

	t.Run("explore-corpus", func(t *testing.T) {
		// The explore fixtures' join loops spin alone while both workers
		// wait out suspension timeouts: the skip engages there, and every
		// schedule still matches the reference stepper.
		var skipped uint64
		for _, b := range bugs.Corpus() {
			prog, err := core.Build(b.ExploreSource)
			if err != nil {
				t.Fatal(err)
			}
			for _, vanilla := range []bool{false, true} {
				var runs [2][]spinRun
				for i, d := range []vm.DispatchMode{vm.DispatchStep, vm.DispatchFast} {
					s, err := core.NewSession(prog, core.RunConfig{
						Mode:           kernel.Prevention,
						Opt:            kernel.OptBase,
						Vanilla:        vanilla,
						NumWatchpoints: 16,
						Cores:          1,
						Seed:           1,
						MaxTicks:       4_000_000,
						TimeoutTicks:   10_000,
						SnapshotVars:   b.SnapshotVars,
						Dispatch:       d,
						HashMemory:     true,
					})
					if err != nil {
						t.Fatal(err)
					}
					for seed := int64(1); seed <= 3; seed++ {
						rng := rand.New(rand.NewSource(seed))
						policy := vm.PolicyFunc(func(sp vm.SchedPoint) int { return rng.Intn(len(sp.Runnable)) })
						res, err := s.RunSchedule(policy, uint64(17+seed*7), seed)
						if err != nil {
							t.Fatal(err)
						}
						runs[i] = append(runs[i], spinRunOf(res))
					}
					if d == vm.DispatchFast {
						skipped += s.Machine().SkippedSpinCycles()
					}
					s.Close()
				}
				for i := range runs[0] {
					if !reflect.DeepEqual(runs[0][i], runs[1][i]) {
						t.Errorf("%s/%s vanilla=%v seed %d: step and fast differ:\nstep %+v\nfast %+v",
							b.App, b.ID, vanilla, i+1, runs[0][i], runs[1][i])
					}
				}
			}
		}
		if skipped == 0 {
			t.Error("the skip never engaged on the explore corpus")
		}
		t.Logf("explore corpus: %d cycles skipped", skipped)
	})

	t.Run("protect-rows", func(t *testing.T) {
		// The protect workload runs on two cores, where the skip never
		// engages: one row pair per application, at a small scale.
		for _, spec := range workloads.BenchSuite(0.02) {
			prog, err := core.Build(spec.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, prevention := range []bool{false, true} {
				copts, kcfg := compile.Options{}, kernel.Config{
					Mode: kernel.Prevention, Opt: kernel.OptBase, NumWatchpoints: 4, TimeoutTicks: 10_000,
				}
				if prevention {
					copts = compile.Options{Annotate: true, ShadowWrites: true}
					kcfg.Opt, kcfg.ShadowDelta = kernel.OptOptimized, compile.ShadowDelta
				}
				bin, err := prog.Binary(copts)
				if err != nil {
					t.Fatal(err)
				}
				m, err := vm.New(bin, kernel.New(kcfg, nil, &trace.Log{}, nil), vm.Config{
					Cores: 2, Seed: 1, MaxTicks: 400_000_000, Requests: spec.Requests,
				})
				if err != nil {
					t.Fatal(err)
				}
				starts := spec.Starts
				if len(starts) == 0 {
					starts = []core.Start{{Fn: "main"}}
				}
				for _, st := range starts {
					if _, err := m.Start(st.Fn, st.Arg); err != nil {
						t.Fatal(err)
					}
				}
				res := m.Run()
				if res.Reason != "completed" {
					t.Errorf("%s prevention=%v: %s", spec.Name, prevention, res.Reason)
				}
				if n := m.SkippedSpinCycles(); n != 0 {
					t.Errorf("%s prevention=%v: skipped %d cycles on two cores", spec.Name, prevention, n)
				}
				m.Release()
			}
		}
	})
}
