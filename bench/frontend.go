package main

import (
	"fmt"
	"math"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/minic"
	"kivati/internal/vm"
)

// Code-generation variants: the vanilla baseline, the annotated binary the
// exploration oracle runs (prevention at OptBase), and the annotated binary
// with shadow writes that prevention at OptOptimized runs.
var (
	vanillaBin   = compile.Options{}
	annotatedBin = compile.Options{Annotate: true}
	shadowBin    = compile.Options{Annotate: true, ShadowWrites: true}
)

// lockset is the build workload's second annotator configuration: the
// lockset analysis with every optimizer pass.
var lockset = annotate.Options{
	Lockset:  true,
	Optimize: annotate.OptimizeOptions{DropBenign: true, Dedupe: true, Coalesce: true},
}

// frontEnd builds one source the way core.BuildWithOptions followed by
// Program.Binary does, one public call at a time so each layer gets its own
// span: minic.Parse, annotate.AnnotateWithOptions, then compile.Compile per
// variant. A binary whose footprint table does not cover its code is an
// error: the VM's fast path indexes that table by PC.
func frontEnd(rc *runCtx, item int, src string, opts annotate.Options, variants ...compile.Options) (*annotate.Program, []*compile.Binary, error) {
	sp := rc.begin("minic.parse", item)
	ast, err := minic.Parse(src)
	rc.end(sp)
	if err != nil {
		return nil, nil, err
	}
	name := "annotate.prototype"
	if opts.Lockset || opts.Optimize.Any() {
		name = "annotate.lockset"
	}
	sp = rc.begin(name, item)
	ap, err := annotate.AnnotateWithOptions(ast, opts)
	rc.end(sp)
	if err != nil {
		return nil, nil, err
	}
	bins := make([]*compile.Binary, len(variants))
	for i, v := range variants {
		sp = rc.begin("compile.compile", item)
		bin, err := compile.Compile(ap, v)
		rc.end(sp)
		if err != nil {
			return nil, nil, err
		}
		if len(bin.Footprints) != len(bin.Code) {
			return nil, nil, fmt.Errorf("footprint table covers %d of %d code bytes", len(bin.Footprints), len(bin.Code))
		}
		bins[i] = bin
	}
	return ap, bins, nil
}

// noteBuild records the front-end counts of one program built in set-up
// and, in a traced run, re-runs the value-range footprint pass on its
// annotated binary (compile.Compile runs it inside, where it cannot be
// timed on its own).
func noteBuild(rc *runCtx, item int, ap *annotate.Program, bin *compile.Binary) error {
	rc.add("annotate.ars", float64(len(ap.ARs)))
	rc.add("compile.code_bytes", float64(len(bin.Code)))
	for _, fp := range bin.Footprints {
		if fp.Unbounded {
			rc.add("compile.unbounded_blocks", 1)
		}
	}
	if rc.tr == nil {
		return nil
	}
	sp := rc.begin("valrange.footprints", item)
	_, err := compile.FootprintsAnalyzed(bin.Code, bin.FuncEntries)
	rc.end(sp)
	return err
}

// noteDecisions adds one run's scheduler-decision and watchpoint-arming
// counters, which explore.Run reports too.
func noteDecisions(rc *runCtx, decisions, samePick, delta, full uint64) {
	rc.add("vm.decisions", float64(decisions))
	rc.add("vm.same_pick_continues", float64(samePick))
	rc.add("hw.delta_arms", float64(delta))
	rc.add("hw.full_arms", float64(full))
}

// noteVM adds one run's interpreter and kernel counters, which only a
// vm.Result carries.
func noteVM(rc *runCtx, res *vm.Result) {
	st := res.Stats
	rc.add("vm.instructions", float64(st.Instructions))
	rc.add("vm.fast_windows", float64(res.FastWindows))
	rc.add("vm.demotions.armed_overlap", float64(res.Demotions.ArmedOverlap))
	rc.add("vm.demotions.unbounded", float64(res.Demotions.Unbounded))
	rc.add("vm.demotions.checked_overlap", float64(res.Demotions.CheckedOverlap))
	rc.add("vm.demotions.timer_edge", float64(res.Demotions.TimerEdge))
	rc.add("vm.demotions.would_trap", float64(res.Demotions.WouldTrap))
	rc.add("kernel.crossings", float64(st.KernelEntries()))
	rc.add("kernel.traps", float64(st.Traps))
	rc.add("kernel.user_handled", float64(st.UserHandled))
	rc.add("kernel.suspensions", float64(st.Suspensions))
	rc.add("kernel.timeouts", float64(st.Timeouts))
	rc.add("kernel.missed_ars", float64(st.MissedARs))
}

// residency accumulates fast-path residency over prevention-mode runs,
// where armed watchpoints decide it (vanilla runs sit near 100%).
type residency struct{ fast, total float64 }

func (r *residency) add(res *vm.Result) {
	r.fast += float64(res.FastInstructions)
	r.total += float64(res.Stats.Instructions)
}

func (r residency) pct() float64 {
	if r.total == 0 {
		return 0
	}
	return 100 * r.fast / r.total
}

// overhead accumulates the geometric mean over subjects of prevention
// ticks ÷ vanilla ticks.
type overhead struct {
	logSum float64
	n      int
}

func (o *overhead) add(prevention, vanilla float64) {
	if prevention > 0 && vanilla > 0 {
		o.logSum += math.Log(prevention / vanilla)
		o.n++
	}
}

// pct is the geomean ratio minus one, in percent.
func (o overhead) pct() float64 {
	if o.n == 0 {
		return 0
	}
	return 100 * (math.Exp(o.logSum/float64(o.n)) - 1)
}

// splitmix64 derives well-spread per-pass values from (seed, pass).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
