package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/trace"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// protect is the paper's own measurement: each bench-suite application run
// vanilla (unannotated, watchpoint-free) and under prevention with every
// optimization and the sync-variable whitelist, on 2 cores and 4
// watchpoints. A pass runs the 12 rows once; an item and a job are one
// core.Run. The VM fast tier, the kernel and watchpoint arming do nearly
// all the work; the vanilla rows are the control for prevention-only
// changes.
type protect struct {
	rows []*protectRow
}

type protectRow struct {
	app        string
	item       int // index of the application in the suite
	prevention bool
	prog       *core.Program
	cfg        core.RunConfig
	runs       []runSig // one per timed run, for the checks
}

func (r *protectRow) String() string {
	if r.prevention {
		return r.app + "/prevention"
	}
	return r.app + "/vanilla"
}

// runSig is the part of a run's outcome the checks compare.
type runSig struct {
	ticks  uint64
	stats  kernel.Stats
	reason string
	err    error
}

func signature(res *vm.Result, err error) runSig {
	if err != nil {
		return runSig{err: err}
	}
	return runSig{ticks: res.Ticks, stats: *res.Stats, reason: res.Reason}
}

// matches reports whether a run reproduced the reference exactly: same
// virtual time, and the same kernel.Stats, instruction count included.
func (s runSig) matches(ref runSig) bool {
	return s.err == nil && s.reason == "completed" && s.ticks == ref.ticks && reflect.DeepEqual(s.stats, ref.stats)
}

func (w *protect) setup(rc *runCtx) error {
	scale := workloads.Scale(1)
	if rc.quick {
		scale = 0.02
	}
	for i, spec := range workloads.BenchSuite(scale) {
		// Thread entry points are lockset roots, as in the harness.
		var opts annotate.Options
		for _, s := range spec.Starts {
			opts.Roots = append(opts.Roots, s.Fn)
		}
		starts := spec.Starts
		if len(starts) == 0 {
			starts = []core.Start{{Fn: "main"}}
		}
		ap, bins, err := frontEnd(rc, i, spec.Source, opts, vanillaBin, shadowBin)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		if err := noteBuild(rc, i, ap, bins[1]); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		// core.Run takes a core.Program. Compile both variants now so no
		// timed run pays for a first compile.
		prog, err := core.BuildWithOptions(spec.Source, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		for _, v := range []compile.Options{vanillaBin, shadowBin} {
			if _, err := prog.Binary(v); err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
		wl, err := prog.SyncVarWhitelist(spec.FlagVars...)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		for _, prevention := range []bool{false, true} {
			cfg := core.RunConfig{
				Mode:           kernel.Prevention,
				Opt:            kernel.OptBase,
				Vanilla:        true,
				NumWatchpoints: 4,
				Cores:          2,
				Seed:           rc.seed,
				MaxTicks:       400_000_000,
				TimeoutTicks:   10_000,
				Starts:         starts,
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
			w.rows = append(w.rows, &protectRow{app: spec.Name, item: i, prevention: prevention, prog: prog, cfg: cfg})
		}
	}
	_, err := w.run(rc, w.rows[0])
	return err
}

// run executes one row: core.Run untraced, the same calls one at a time
// when traced.
func (w *protect) run(rc *runCtx, row *protectRow) (*vm.Result, error) {
	if rc.tr == nil {
		return core.Run(row.prog, row.cfg)
	}
	sp := rc.begin("bench.item", row.item)
	defer rc.end(sp)
	return runTraced(rc, row)
}

// runTraced makes the calls core.Run makes — Program.Binary, kernel.New,
// vm.New, Machine.Start, Machine.Run — each in its own span. The checks
// compare its results with the reference like any other run's.
func runTraced(rc *runCtx, row *protectRow) (*vm.Result, error) {
	cfg := row.cfg
	variant := vanillaBin
	if !cfg.Vanilla {
		variant = shadowBin
	}
	sp := rc.begin("core.binary", row.item)
	bin, err := row.prog.Binary(variant)
	rc.end(sp)
	if err != nil {
		return nil, err
	}
	kcfg := kernel.Config{
		Mode:           cfg.Mode,
		Opt:            cfg.Opt,
		NumWatchpoints: cfg.NumWatchpoints,
		TimeoutTicks:   cfg.TimeoutTicks,
	}
	if bin.Opts.ShadowWrites && cfg.Opt.UseUserLib() {
		kcfg.ShadowDelta = compile.ShadowDelta
	}
	sp = rc.begin("kernel.new", row.item)
	k := kernel.New(kcfg, cfg.Whitelist, &trace.Log{}, nil)
	rc.end(sp)
	sp = rc.begin("vm.new", row.item)
	m, err := vm.New(bin, k, vm.Config{
		Cores:    cfg.Cores,
		Seed:     cfg.Seed,
		MaxTicks: cfg.MaxTicks,
		Requests: cfg.Requests,
	})
	rc.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rc.begin("vm.start", row.item)
	for _, s := range cfg.Starts {
		if _, err := m.Start(s.Fn, s.Arg); err != nil {
			rc.end(sp)
			return nil, err
		}
	}
	rc.end(sp)
	name := "vm.run.vanilla"
	if row.prevention {
		name = "vm.run.prevention"
	}
	sp = rc.begin(name, row.item)
	res := m.Run()
	secs := rc.end(sp)
	rc.instrs += float64(res.Stats.Instructions)
	rc.runSecs += secs
	if len(res.Faults) > 0 {
		return res, fmt.Errorf("program faulted: %s", res.Faults[0])
	}
	return res, nil
}

func (w *protect) pass(rc *runCtx) (int, []float64, error) {
	jobs := make([]float64, 0, len(w.rows))
	var res0 residency
	var ovh overhead
	var vanillaTicks uint64
	for _, row := range w.rows {
		t0 := time.Now()
		res, err := w.run(rc, row)
		jobs = append(jobs, time.Since(t0).Seconds())
		row.runs = append(row.runs, signature(res, err))
		if !rc.counting || err != nil {
			continue
		}
		noteVM(rc, res)
		noteDecisions(rc, res.Decisions, res.SamePickContinues, res.DeltaArms, res.FullArms)
		if !row.prevention {
			rc.add("sim.ticks.vanilla", float64(res.Ticks))
			vanillaTicks = res.Ticks
			continue
		}
		rc.add("sim.ticks.prevention", float64(res.Ticks))
		res0.add(res)
		ovh.add(float64(res.Ticks), float64(vanillaTicks))
	}
	if rc.counting {
		rc.counts["vm.fast_residency_pct"] = res0.pct()
		rc.counts["sim.prevention_overhead_pct"] = ovh.pct()
	}
	return len(w.rows), jobs, nil
}

// check replays every row once on the reference interpreter
// (DispatchStep): each timed run of the row must match it on ticks,
// instructions and kernel.Stats, and one fast-tier run must also end with
// the reference's memory image. A row that fails fails all its runs.
func (w *protect) check(rc *runCtx) (int, error) {
	failed := 0
	for _, row := range w.rows {
		ref := row.cfg
		ref.Dispatch = vm.DispatchStep
		ref.HashMemory = true
		want, err := core.Run(row.prog, ref)
		wantSig := signature(want, err)
		fast := row.cfg
		fast.HashMemory = true
		got, err := core.Run(row.prog, fast)
		bad := 0
		switch {
		case wantSig.err != nil || wantSig.reason != "completed":
			fmt.Fprintf(os.Stderr, "protect: %s: reference run: %v %s\n", row, wantSig.err, wantSig.reason)
			bad = len(row.runs)
		case err != nil || got.MemHash != want.MemHash || !signature(got, nil).matches(wantSig):
			fmt.Fprintf(os.Stderr, "protect: %s: fast run does not reproduce the reference memory image\n", row)
			bad = len(row.runs)
		default:
			for _, s := range row.runs {
				if !s.matches(wantSig) {
					bad++
				}
			}
			if bad > 0 {
				fmt.Fprintf(os.Stderr, "protect: %s: %d of %d timed runs differ from the reference\n", row, bad, len(row.runs))
			}
		}
		failed += bad
	}
	return failed, nil
}
