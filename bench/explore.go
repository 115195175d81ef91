package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/core"
	"kivati/internal/corpusgen"
	"kivati/internal/explore"
	"kivati/internal/harness"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

// exploreJob is schedule exploration through the differential oracle
// (explore.Differential, snapshot engine, one core, Parallelism 1). A
// campaign explores one subject in both modes; a job is one subject's
// campaigns, and a pass runs every job once. Three workloads share it:
//
//   - explore: the 11-bug corpus under the random strategy from base seed
//     seed. Runs are short and made of scheduler decisions (about 1,000 per
//     schedule), each starting with one restore of the clock-0 snapshot, so
//     per-decision cost, same-pick continuation and restore cost dominate.
//     An item is a schedule.
//   - dfs: the same corpus under preemption-bounded DFS with DPOR, which
//     captures mid-run snapshots and resumes children from them. Each bug
//     is explored at two quanta in [17,45], one in each half of the range
//     from an offset derived from (seed, bug): a bug's cost moves by up to
//     40% with its quantum, and one draw per bug made the pass's work vary
//     by 8% between seeds. Same-pick continuation almost never fires, so
//     dfs is the control for changes aimed at explore. An item is a
//     schedule.
//   - soak: soakPrograms generated programs with array decoys, judged by
//     kivati-soak's rules. Each job pays a build and two core.NewSession calls
//     (8 MB machines), so set-up costs that vanish on explore show here.
//     An item is a judged program.
type exploreJob struct {
	kind     string // "explore", "dfs" or "soak"
	subjects []*explore.Subject
	bug      []bool     // ground truth: subject i holds a bug
	camps    []campaign // every timed campaign, for the checks
	// The probe's timings per campaign (subject, plan), each the faster of
	// probeReps: runSecs is the time of the campaign's own runs it replayed
	// per mode (vanilla, prevention), refSecs the wall time of the whole
	// campaign run once more next to them.
	runSecs map[[2]int]*[2]float64
	refSecs map[[2]int]float64
}

type campaign struct {
	subject    int
	plan       int // index into the subject's plans
	items      int
	vdiv, pdiv int
	stats      [2]explore.EngineStats // vanilla, prevention
	ticks      [2]float64             // virtual ticks of all explored schedules
	span       int                    // -1 unless traced
	err        error
}

// Sizes. A pass takes 0.8–2.5 s on a 2-core host, so a 15-second run has 6
// to 18 passes.
const (
	exploreSchedules = 100 // per mode per bug
	// dfsSchedules is per mode per campaign, two campaigns per bug. Every
	// bug diverges under vanilla within 50 schedules at every quantum.
	dfsSchedules = 50
	// warmSchedules is the size of the warm-up campaign in set-up: enough
	// to take every path of explore.Differential once, small enough that
	// set-up time does not hinge on one subject's schedules.
	warmSchedules = 4
	// Soak judges many programs with fewer schedules than kivati-soak's 60,
	// so that one seed's draw of programs moves the pass little: the
	// virtual-time cost of a 10-program corpus varied by 18% between seeds,
	// of 24 programs by 7% and of 48 by 3.5%, and its 90th-percentile
	// program by 9% at 24 programs and 7% at 48. Over 400 generated
	// programs the hardest bug to expose still diverged in 5 of 30 vanilla
	// schedules.
	soakSchedules = 30
	soakPrograms  = 36
	dfsBound      = 3
	dfsHorizon    = 64
	// dfsProbeRuns is the number of fresh DFS runs the probe makes per
	// campaign and mode; each also resumes a child from every capture.
	dfsProbeRuns = 2
	// probeReps is how often the probe times each campaign's calls and the
	// campaign itself. Each takes 0.05–0.3 s, shorter than the host's
	// bursts of load, so the faster of two is far less noisy than one.
	probeReps = 2
)

func (e *exploreJob) setup(rc *runCtx) error {
	if e.kind == "soak" {
		n := soakPrograms
		if rc.quick {
			n = 2
		}
		sp := rc.begin("corpusgen.generate", -1)
		progs, err := corpusgen.Generate(corpusgen.Options{
			Count: n, Seed: rc.seed, Arrays: true, BoundedArrays: true, Parallelism: 1,
		})
		rc.end(sp)
		if err != nil {
			return err
		}
		for _, p := range progs {
			e.subjects = append(e.subjects, explore.GenSubject(p, len(progs)))
			e.bug = append(e.bug, p.Expect == corpusgen.ExpectBug)
		}
	} else {
		for _, b := range bugs.Corpus() {
			s, err := explore.BugSubject(b)
			if err != nil {
				return err
			}
			e.subjects = append(e.subjects, s)
			e.bug = append(e.bug, true)
		}
		if rc.quick {
			e.subjects = e.subjects[:3]
		}
	}
	for i, s := range e.subjects {
		ap, bins, err := frontEnd(rc, i, s.Source, annotate.Options{}, vanillaBin, annotatedBin)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		if err := noteBuild(rc, i, ap, bins[1]); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	warm := e.plans(rc, 0)[0]
	warm.Schedules = warmSchedules
	_, err := explore.Differential(e.subjects[0], warm)
	return err
}

// plans configures subject i's campaigns.
func (e *exploreJob) plans(rc *runCtx, i int) []explore.Options {
	o := explore.Options{
		Strategy:    explore.Random,
		Engine:      explore.EngineSnapshot,
		Schedules:   exploreSchedules,
		Seed:        rc.seed,
		Cores:       1,
		Parallelism: 1,
	}
	if rc.quick {
		o.Schedules = 4
	}
	switch e.kind {
	case "dfs":
		o.Strategy = explore.DFS
		o.Bound = dfsBound
		o.Horizon = dfsHorizon
		o.DPOR = true
		if !rc.quick {
			o.Schedules = dfsSchedules
		}
		off := splitmix64(uint64(rc.seed)*1_000_003 + uint64(i))
		lo, hi := o, o
		lo.Quantum = 17 + off%15
		hi.Quantum = 32 + off/15%14
		return []explore.Options{lo, hi}
	case "soak":
		// kivati-soak's per-program exploration seed.
		if !rc.quick {
			o.Schedules = soakSchedules
		}
		o.Seed = rc.seed + int64(i+1)*1_000_003
	}
	return []explore.Options{o}
}

func (e *exploreJob) pass(rc *runCtx) (int, []float64, error) {
	var items int
	jobs := make([]float64, len(e.subjects))
	var ovh overhead
	var bugsSeen, detected, falsePos int
	for i, s := range e.subjects {
		for p, o := range e.plans(rc, i) {
			sp := rc.begin("explore.differential", i)
			t0 := time.Now()
			d, err := explore.Differential(s, o)
			jobs[i] += time.Since(t0).Seconds()
			rc.end(sp)
			c := campaign{subject: i, plan: p, span: sp, err: err, items: 1}
			if e.kind != "soak" {
				c.items = 2 * o.Schedules
			}
			if err == nil {
				c.vdiv, c.pdiv = d.VanillaDivergences(), d.PreventionDivergences()
				c.stats = [2]explore.EngineStats{engineStats(d.Vanilla), engineStats(d.Prevention)}
				c.ticks = [2]float64{totalTicks(d.Vanilla), totalTicks(d.Prevention)}
				if e.kind != "soak" {
					c.items = len(d.Vanilla.Runs) + len(d.Prevention.Runs)
				}
				if rc.counting {
					e.count(rc, d, &ovh)
					if e.bug[i] {
						bugsSeen++
						if c.vdiv > 0 {
							detected++
						}
					} else if c.vdiv > 0 {
						falsePos++
					}
				}
			}
			items += c.items
			e.camps = append(e.camps, c)
		}
	}
	if rc.counting {
		rc.counts["sim.prevention_overhead_pct"] = ovh.pct()
		rc.counts["oracle.recall"] = ratio(detected, bugsSeen)
		rc.counts["oracle.precision"] = ratio(detected, detected+falsePos)
	}
	return items, jobs, nil
}

// ratio is the soak report's convention: 1.0 over an empty denominator.
func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

func engineStats(r *explore.Report) explore.EngineStats {
	if r.Stats == nil {
		return explore.EngineStats{}
	}
	return *r.Stats
}

func totalTicks(r *explore.Report) float64 {
	var t float64
	for _, run := range r.Runs {
		t += float64(run.Ticks)
	}
	return t
}

// count adds the counters of one campaign of the first pass.
func (e *exploreJob) count(rc *runCtx, d *explore.DiffReport, ovh *overhead) {
	var meanTicks [2]float64
	for mode, rep := range []*explore.Report{d.Vanilla, d.Prevention} {
		st := engineStats(rep)
		rc.add("explore.schedules", float64(len(rep.Runs)))
		rc.add("explore.restores", float64(st.Restores))
		rc.add("explore.snapshots", float64(st.Snapshots))
		rc.add("explore.resumed", float64(st.Resumed))
		rc.add("explore.pruned", float64(st.Pruned))
		for _, r := range rep.Runs {
			noteDecisions(rc, uint64(r.Decisions), r.SamePickContinues, r.DeltaArms, r.FullArms)
		}
		ticks := totalTicks(rep)
		rc.add([]string{"sim.ticks.vanilla", "sim.ticks.prevention"}[mode], ticks)
		if len(rep.Runs) > 0 {
			meanTicks[mode] = ticks / float64(len(rep.Runs))
		}
	}
	ovh.add(meanTicks[1], meanTicks[0])
	rc.add("explore.vanilla_divergences", float64(d.VanillaDivergences()))
	rc.add("explore.prevention_divergences", float64(d.PreventionDivergences()))
}

// check applies the oracle's verdicts: no prevention-mode schedule may
// diverge from the serial result, every bug must diverge under vanilla at
// least once in every campaign, and (soak) no benign decoy may. Campaigns
// are deterministic, so every pass must also reproduce the first pass's
// verdicts and engine counters exactly. A failed campaign fails all its
// items. Soak also applies kivati-soak's strict gate to the whole run.
func (e *exploreJob) check(rc *runCtx) (int, error) {
	failed := 0
	first := map[[2]int]campaign{}
	var rep harness.SoakReport
	for _, c := range e.camps {
		name := e.subjects[c.subject].Name
		key := [2]int{c.subject, c.plan}
		ref, seen := first[key]
		if !seen {
			first[key] = c
		}
		switch {
		case c.err != nil:
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", e.kind, name, c.err)
			failed += c.items
			continue
		case c.pdiv > 0:
			fmt.Fprintf(os.Stderr, "%s: %s: %d prevention-mode schedules diverged\n", e.kind, name, c.pdiv)
			failed += c.items
		case (c.vdiv > 0) != e.bug[c.subject]:
			fmt.Fprintf(os.Stderr, "%s: %s: %d vanilla divergences, bug=%t\n", e.kind, name, c.vdiv, e.bug[c.subject])
			failed += c.items
		case seen && (c.vdiv != ref.vdiv || c.stats != ref.stats || c.ticks != ref.ticks):
			fmt.Fprintf(os.Stderr, "%s: %s: a rerun of the same campaign differs from the first\n", e.kind, name)
			failed += c.items
		}
		rep.PreventionDivergences += c.pdiv
		if e.bug[c.subject] {
			rep.Bugs++
			if c.vdiv > 0 {
				rep.Detected++
			} else {
				rep.Missed++
			}
		} else if c.vdiv > 0 {
			rep.FalsePositives++
		}
	}
	// The gate's conditions are the per-campaign checks above, so a failing
	// gate has already failed those campaigns' items.
	if e.kind == "soak" {
		if err := rep.Gate(true); err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		}
	}
	return failed, nil
}

// probe drives the calls explore.Differential makes inside, on every
// campaign, so a traced run can time them one by one: core.NewSession,
// Machine.Snapshot, Machine.Restore and Machine.Run under the campaign's own
// policy shape. Its random runs are the campaign's own schedules: same
// seeds, policy and quanta. Only fresh runs feed the counters: a resumed
// run's vm.Result includes its prefix.
func (e *exploreJob) probe(rc *runCtx) error {
	var res residency
	e.runSecs = map[[2]int]*[2]float64{}
	e.refSecs = map[[2]int]float64{}
	for i, s := range e.subjects {
		prog, err := core.BuildWithOptions(s.Source, annotate.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		for p, o := range e.plans(rc, i) {
			key := [2]int{i, p}
			e.runSecs[key] = &[2]float64{math.Inf(1), math.Inf(1)}
			e.refSecs[key] = math.Inf(1)
			for r := 0; r < probeReps; r++ {
				for mode, vanilla := range []bool{true, false} {
					secs, err := e.probeMode(rc, i, o, prog, vanilla, r == 0, &res)
					if err != nil {
						return fmt.Errorf("%s: %w", s.Name, err)
					}
					e.runSecs[key][mode] = math.Min(e.runSecs[key][mode], secs)
				}
				t0 := time.Now()
				if _, err := explore.Differential(s, o); err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
				e.refSecs[key] = math.Min(e.refSecs[key], time.Since(t0).Seconds())
			}
		}
	}
	rc.counts["vm.fast_residency_pct"] = res.pct()
	return nil
}

// probeMode probes one campaign's calls in one mode and returns the time
// of the campaign's own runs it replayed: the serial references and, for
// the random strategy, every schedule. With count set its fresh runs feed
// the counters.
func (e *exploreJob) probeMode(rc *runCtx, i int, o explore.Options, prog *core.Program, vanilla, count bool, res *residency) (float64, error) {
	sp := rc.begin("core.new_session", i)
	sess, err := core.NewSession(prog, core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		Vanilla:        vanilla,
		NumWatchpoints: 16,
		Cores:          1,
		Seed:           o.Seed,
		MaxTicks:       4_000_000,
		TimeoutTicks:   10_000,
		Costs:          vm.DefaultCosts(),
		SnapshotVars:   e.subjects[i].SnapshotVars,
		Dispatch:       vm.DispatchFast,
	})
	rc.end(sp)
	if err != nil {
		return 0, err
	}
	m := sess.Machine()
	if o.DPOR {
		m.SetSegmentLimit(o.Horizon + 8)
	}
	sp = rc.begin("vm.snapshot", i)
	init, err := m.Snapshot()
	rc.end(sp)
	if err != nil {
		return 0, err
	}
	mode := "prevention"
	if vanilla {
		mode = "vanilla"
	}
	// The campaign's serial references, on the session it goes on to
	// explore with: FIFO order, which also pays the fresh machine's first
	// touches, then reversed order.
	var total float64
	for _, policy := range []vm.SchedulePolicy{fifo, lastSpawned} {
		sp = rc.begin("vm.serial."+mode, i)
		_, err := sess.RunSchedule(policy, 1<<40, o.Seed)
		total += rc.end(sp)
		if err != nil {
			return 0, err
		}
	}
	runs := o.Schedules
	if e.kind == "dfs" {
		runs = dfsProbeRuns
	}
	for k := 0; k < runs; k++ {
		sp = rc.begin("vm.restore", i)
		m.Restore(init)
		rc.end(sp)
		var policy vm.SchedulePolicy
		var dfs *capturePolicy
		if e.kind == "dfs" {
			m.Reseed(o.Seed)
			m.SetQuantum(o.Quantum)
			dfs = &capturePolicy{rc: rc, m: m, item: i, deviateAt: uint64(k), horizon: uint64(o.Horizon)}
			policy = dfs
		} else {
			seed := o.Seed + int64(k)
			m.Reseed(seed)
			m.SetQuantum(randomQuantum(seed))
			policy = randomPolicy{rand.New(rand.NewSource(seed))}
		}
		m.SetPolicy(policy)
		r, secs, err := probeRun(rc, m, i, "vm.run."+mode)
		if err != nil {
			return 0, err
		}
		if count {
			noteVM(rc, r)
			rc.instrs += float64(r.Stats.Instructions)
			rc.runSecs += secs
			if !vanilla {
				res.add(r)
			}
		}
		if dfs == nil {
			total += secs // one of the campaign's own schedules
			continue
		}
		// Resume a child from every branch-point capture, deviating at the
		// capture's decision, as the DFS does.
		for _, snap := range dfs.snaps {
			sp = rc.begin("vm.restore", i)
			m.Restore(snap)
			rc.end(sp)
			m.SetPolicy(&capturePolicy{deviateAt: snap.SchedSeq()})
			if _, _, err := probeRun(rc, m, i, "vm.resume."+mode); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// probeRun runs the machine in a span, requires the run to complete, and
// returns the span's self time in seconds.
func probeRun(rc *runCtx, m *vm.Machine, item int, name string) (*vm.Result, float64, error) {
	sp := rc.begin(name, item)
	r := m.Run()
	secs := rc.end(sp)
	if r.Reason != "completed" {
		return nil, 0, fmt.Errorf("probe run did not complete: %s", r.Reason)
	}
	if len(r.Faults) > 0 {
		return nil, 0, fmt.Errorf("probe run faulted: %s", r.Faults[0])
	}
	return r, secs, nil
}

// randomQuantum is the random strategy's per-seed quantum in [17,45].
func randomQuantum(seed int64) uint64 {
	v := seed * 7919
	if v < 0 {
		v = -v
	}
	return 17 + uint64(v%29)
}

// fifo and lastSpawned are the campaign's serial orders: always the queue
// head, and always the highest thread ID.
var (
	fifo        = vm.PolicyFunc(func(vm.SchedPoint) int { return 0 })
	lastSpawned = vm.PolicyFunc(func(sp vm.SchedPoint) int {
		best := 0
		for i, id := range sp.Runnable {
			if id > sp.Runnable[best] {
				best = i
			}
		}
		return best
	})
)

// randomPolicy picks uniformly among the runnable threads, as the random
// strategy does.
type randomPolicy struct{ rng *rand.Rand }

func (p randomPolicy) Pick(sp vm.SchedPoint) int { return p.rng.Intn(len(sp.Runnable)) }

// capturePolicy takes the default choice except at decision deviateAt and,
// when m is set, captures a snapshot at every DFS branch point the
// snapshot engine would (every horizon/16 decisions within the horizon).
type capturePolicy struct {
	rc        *runCtx
	m         *vm.Machine
	item      int
	deviateAt uint64
	horizon   uint64
	snaps     []*vm.Snapshot
}

func (p *capturePolicy) Pick(sp vm.SchedPoint) int {
	if p.m != nil && sp.Seq < p.horizon && sp.Seq%(p.horizon/16) == 0 {
		id := p.rc.begin("vm.snapshot", p.item)
		snap, err := p.m.Snapshot()
		p.rc.end(id)
		if err == nil {
			p.snaps = append(p.snaps, snap)
		}
	}
	if sp.Seq == p.deviateAt {
		return 1
	}
	return 0
}

// attribute splits the self time of every traced explore.Differential
// span, which the benchmark cannot open, into the layers it calls: the
// probe's mean time per call for this subject times the campaign's own
// call counts gives each layer's share of the campaign the probe timed at
// the same moment, and that share of the traced span goes to the layer.
// Shares, not the probe's seconds, because the host's speed drifts between
// the traced passes and the probe. What remains is the explore layer's own
// time: engine, session pool and oracle.
func (e *exploreJob) attribute(tr *tracer, self map[string]float64) {
	for _, c := range e.camps {
		if c.span < 0 || c.err != nil {
			continue
		}
		per := func(name string) float64 { return tr.meanOr(name, c.subject) }
		parts := map[string]float64{
			"minic":    per("minic.parse"),
			"annotate": per("annotate.prototype"),
			"compile":  2 * per("compile.compile"),
			"core":     2 * per("core.new_session"),
		}
		for mode, name := range []string{"vanilla", "prevention"} {
			st := c.stats[mode]
			runs := e.runSecs[[2]int{c.subject, c.plan}][mode]
			if e.kind == "dfs" {
				// The probe sampled DFS runs: estimate per call.
				runs += float64(st.Restores-st.Resumed)*per("vm.run."+name) +
					float64(st.Resumed)*per("vm.resume."+name)
			}
			parts["vm"] += float64(st.Restores)*per("vm.restore") + runs +
				float64(st.Snapshots)*per("vm.snapshot")
		}
		share := tr.spans[c.span].self().Seconds() / e.refSecs[[2]int{c.subject, c.plan}]
		for layer, secs := range parts {
			self[layer] += secs * share
			self["explore"] -= secs * share
		}
	}
}
