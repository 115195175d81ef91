package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. One set-up is short (0.02–0.3 s) and a single sample would carry
// the host's noise into a gated metric.
const setupReps = 7

// bench is one workload's job. A run calls setup on the bench it measures,
// then calls pass until the measured phase has used its time, then check.
// Before each of the first passes it also sets up a fresh bench and
// discards it, only to time set-up again at another moment of the run.
type bench interface {
	// setup generates and builds the inputs and runs a small warm-up job,
	// so caches are filled and lazy initialization is done before the
	// passes.
	setup(rc *runCtx) error
	// pass runs the workload's fixed work once: every pass of a run does
	// the same jobs on the same inputs, so passes differ only by host
	// noise. It returns the items done and, in a fixed order, the latency
	// of every job timed from outside, in seconds.
	pass(rc *runCtx) (items int, jobs []float64, err error)
	// check verifies the outputs of every timed pass and returns the
	// number of items that failed.
	check(rc *runCtx) (failed int, err error)
}

// workload names a job and how to make its bench.
type workload struct {
	name string
	make func() bench
}

var allWorkloads = []workload{
	{"protect", func() bench { return &protect{} }},
	{"explore", func() bench { return &exploreJob{kind: "explore"} }},
	{"dfs", func() bench { return &exploreJob{kind: "dfs"} }},
	{"soak", func() bench { return &exploreJob{kind: "soak"} }},
	{"build", func() bench { return &build{} }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runCtx carries one run's settings and instrumentation.
type runCtx struct {
	seed  int64
	quick bool
	// tr records spans while non-nil: during a traced run's set-up, traced
	// passes and probe. Untraced work sees nil and pays nothing.
	tr *tracer
	// counts holds per-layer count and virtual metrics. They come from the
	// first set-up and the first pass only, so they are identical for
	// identical seeds whatever the number of passes.
	counts map[string]float64
	// counting is set while that first pass runs.
	counting bool
	// instrs and runSecs accumulate instructions and host seconds of the
	// vm.Run calls timed from outside, for vm.minstr_per_s.
	instrs  float64
	runSecs float64
}

func (rc *runCtx) add(name string, v float64) { rc.counts[name] += v }

// begin opens a span; it returns -1 when tracing is off.
func (rc *runCtx) begin(name string, item int) int {
	if rc.tr == nil {
		return -1
	}
	return rc.tr.begin(name, item)
}

// end closes a span and returns its self time in seconds (0 when off).
func (rc *runCtx) end(id int) float64 {
	if id < 0 || rc.tr == nil {
		return 0
	}
	return rc.tr.end(id)
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of a -record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

// phase is the outcome of a sequence of timed passes.
type phase struct {
	passes int
	items  int
	rates  []float64   // items per second, one per pass
	walls  []float64   // seconds, one per pass
	jobs   [][]float64 // jobs[j]: seconds of job j in every pass
}

// The end-to-end times take each run's fastest observation, not its
// median. The host the bounds were set on slows down in bursts of 0.5–3 s,
// by up to 60%, and never speeds up: one fixed pass took 0.48 s or 0.81 s.
// A run's median moves with the share of its time spent in bursts; its
// fastest pass or job is the cost of the work on an unloaded processor.

// bestRate is the items per second of the run's fastest pass. A pass
// carries every cost of its work, garbage collection included.
func (ph phase) bestRate() float64 {
	best := 0.0
	for _, r := range ph.rates {
		best = math.Max(best, r)
	}
	return best
}

// jobMins returns every job's fastest latency over the passes, sorted.
func (ph phase) jobMins() []float64 {
	out := make([]float64, len(ph.jobs))
	for j, d := range ph.jobs {
		out[j] = sortedCopy(d)[0]
	}
	sort.Float64s(out)
	return out
}

// runPass runs one pass and adds it to ph; with count set it records the
// counters. Every pass starts from a collected heap, so garbage one pass
// leaves does not slow the next, and the peak heap repeats pass after
// pass. Inside a traced phase the pass is a bench.pass span.
func runPass(rc *runCtx, b bench, ph *phase, count bool) error {
	runtime.GC()
	rc.counting = count
	sp := rc.begin("bench.pass", -1)
	t0 := time.Now()
	items, jobs, err := b.pass(rc)
	wall := time.Since(t0).Seconds()
	rc.end(sp)
	rc.counting = false
	if err != nil {
		return fmt.Errorf("pass %d: %w", ph.passes, err)
	}
	if ph.jobs == nil {
		ph.jobs = make([][]float64, len(jobs))
	}
	for j, d := range jobs {
		ph.jobs[j] = append(ph.jobs[j], d)
	}
	ph.passes++
	ph.items += items
	ph.rates = append(ph.rates, float64(items)/wall)
	ph.walls = append(ph.walls, wall)
	return nil
}

// timeSetup sets b up, from a collected heap, and returns the seconds it
// took.
func timeSetup(rc *runCtx, b bench) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if err := b.setup(rc); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// runWorkload runs one workload and returns its result line. Set-up is
// timed setupReps times, spread over the run so that one burst of host
// load does not cover them all. A traced run alternates untraced and
// traced passes, so both see the same host and their difference is the
// tracing overhead; its metrics are the per-layer ones.
func runWorkload(w workload, c config, stdout io.Writer) (*result, error) {
	rc := &runCtx{seed: c.seed, quick: c.quick, counts: map[string]float64{}}
	var tr *tracer
	if c.trace {
		tr = newTracer()
		rc.tr = tr
	}
	minPasses := 3
	if c.quick {
		minPasses = 1
	}

	b := w.make()
	s, err := timeSetup(rc, b)
	if err != nil {
		return nil, err
	}
	setups := []float64{s}
	// spareSetup times a set-up of a fresh bench and discards it; counts
	// and spans come from the first set-up alone.
	spareSetup := func() error {
		s, err := timeSetup(&runCtx{seed: c.seed, quick: c.quick, counts: map[string]float64{}}, w.make())
		setups = append(setups, s)
		return err
	}
	var plain, traced phase
	measured := 0.0
	for k := 0; measured < c.seconds || plain.passes < minPasses || (c.trace && traced.passes < minPasses); k++ {
		if len(setups) < setupReps {
			if err := spareSetup(); err != nil {
				return nil, err
			}
		}
		ph := &plain
		rc.tr = nil
		if c.trace && k%2 == 1 {
			ph, rc.tr = &traced, tr
		}
		if err := runPass(rc, b, ph, k == 0); err != nil {
			return nil, err
		}
		measured += ph.walls[len(ph.walls)-1]
	}
	for len(setups) < setupReps {
		if err := spareSetup(); err != nil {
			return nil, err
		}
	}
	// explore.Differential cannot be opened from outside: a probe times
	// the calls it makes one by one, and its spans are split by the shares
	// of time the probe measured.
	ej, opaque := b.(*exploreJob)
	if c.trace && opaque {
		rc.tr = tr
		if err := ej.probe(rc); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		rc.tr = nil
	}
	failed, err := b.check(rc)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	res := &result{
		Attempted: plain.items + traced.items,
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	res.Correct = failed == 0 && res.Attempted > 0

	fmt.Fprintf(stdout, "%s: seed %d, %d passes, %d items, %d of %d items failed\n",
		w.name, c.seed, plain.passes+traced.passes, res.Attempted, failed, res.Attempted)
	if !c.trace {
		jobs := plain.jobMins()
		vals := map[string]float64{
			"setup_s":     median(setups),
			"items_per_s": plain.bestRate(),
			"job_p50_ms":  1e3 * quantile(jobs, 0.5),
			"job_p90_ms":  1e3 * quantile(jobs, 0.9),
		}
		fmt.Fprintf(stdout, "%s: %d jobs per pass; items/s per pass %s; set-up %s s\n",
			w.name, len(jobs), quartiles(plain.rates), quartiles(setups))
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		return res, nil
	}

	self := tr.selfTimes()
	if opaque {
		ej.attribute(tr, self)
	}
	vals := layerValues(rc, tr, self, plain, traced)
	printSelfTable(stdout, w.name, self, traced)
	fmt.Fprintf(stdout, "%s: tracing overhead %.2f%% (fastest pass %.1f items/s traced vs %.1f untraced)\n",
		w.name, vals["trace.overhead_pct"], traced.bestRate(), plain.bestRate())
	path := traceOutPath(c)
	if err := tr.write(path, w.name, c.seed, self, traced.passes); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(stdout, "%s: wrote %d spans to %s\n", w.name, len(tr.spans), path)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return res, nil
}

// layerValues assembles the per-layer metrics of a traced run.
func layerValues(rc *runCtx, tr *tracer, self map[string]float64, plain, traced phase) map[string]float64 {
	vals := map[string]float64{}
	for k, v := range rc.counts {
		vals[k] = v
	}
	for _, s := range spanMetrics {
		if d := tr.durations(s.span, anyItem); len(d) > 0 {
			vals[s.metric] = s.scale * median(d)
		}
	}
	if rc.runSecs > 0 {
		vals["vm.minstr_per_s"] = rc.instrs / rc.runSecs / 1e6
	}
	n := float64(traced.passes)
	var total float64
	for layer, secs := range self {
		vals["self_ms."+layer] = 1e3 * secs / n
		total += secs
	}
	vals["trace.pass_ms"] = 1e3 * total / n
	if r := traced.bestRate(); r > 0 {
		vals["trace.overhead_pct"] = 100 * (plain.bestRate()/r - 1)
	}
	vals["host.peak_rss_mb"] = peakRSSMB()
	return vals
}

// spanMetrics maps span names to the per-call median metrics they feed.
var spanMetrics = []struct {
	span, metric string
	scale        float64
}{
	{"minic.parse", "minic.parse_us", 1e6},
	{"annotate.prototype", "annotate.annotate_us.prototype", 1e6},
	{"annotate.lockset", "annotate.annotate_us.lockset", 1e6},
	{"compile.compile", "compile.compile_us", 1e6},
	{"valrange.footprints", "valrange.footprints_us", 1e6},
	{"corpusgen.generate", "corpusgen.generate_ms", 1e3},
	{"core.new_session", "core.new_session_ms", 1e3},
	{"vm.new", "vm.new_ms", 1e3},
	{"vm.snapshot", "vm.snapshot_us", 1e6},
	{"vm.restore", "vm.restore_us", 1e6},
	{"vm.run.vanilla", "vm.run_us.vanilla", 1e6},
	{"vm.run.prevention", "vm.run_us.prevention", 1e6},
}

func printSelfTable(w io.Writer, name string, self map[string]float64, traced phase) {
	n := float64(traced.passes)
	var parts []string
	var total float64
	for _, layer := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f", layer, 1e3*self[layer]/n))
		total += self[layer]
	}
	fmt.Fprintf(w, "%s: self time per traced pass (ms): %s; sum %.1f, mean pass wall %.1f\n",
		name, strings.Join(parts, ", "), 1e3*total/n, 1e3*mean(traced.walls))
}

// peakRSSMB is the process's peak resident set size (getrusage's maxrss,
// the kernel's VmHWM), over the whole run.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of a sorted
// sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles renders a sample's median and quartiles.
func quartiles(xs []float64) string {
	s := sortedCopy(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
}
