package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// quickRun runs one workload in-process on tiny inputs.
func quickRun(t *testing.T, w workload, seed int64, trace bool) *result {
	t.Helper()
	c := config{
		workload: w.name,
		seed:     seed,
		seconds:  0.05,
		trace:    trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		quick:    true,
	}
	res, err := runWorkload(w, c, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %t): %v", w.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (trace %t): correct=%t failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// wantMetrics checks that a result prints exactly the listed metrics, each
// with its unit and a finite value.
func wantMetrics(t *testing.T, name string, res *result, list []metric) {
	t.Helper()
	if len(res.Metrics) != len(list) {
		t.Errorf("%s: %d metrics printed, want %d", name, len(res.Metrics), len(list))
	}
	for _, m := range list {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.name)
			continue
		}
		if v.Unit != m.unit {
			t.Errorf("%s: metric %s unit %q, want %q", name, m.name, v.Unit, m.unit)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("%s: result does not encode: %v", name, err)
	}
}

// TestQuickWorkloads runs every workload untraced and traced twice: every
// metric is printed with its unit, no item fails, and a traced rerun with
// the same seed reproduces every count and virtual metric.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range allWorkloads {
		plain := quickRun(t, w, 1, false)
		wantMetrics(t, w.name, plain, endToEnd)
		for _, m := range endToEnd {
			if v := plain.Metrics[m.name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, v)
			}
		}
		a := quickRun(t, w, 1, true)
		wantMetrics(t, w.name+" traced", a, perLayer)
		b := quickRun(t, w, 1, true)
		for _, m := range perLayer {
			if m.kind != "count" && m.kind != "virtual" {
				continue
			}
			if a.Metrics[m.name] != b.Metrics[m.name] {
				t.Errorf("%s: %s differs between runs with seed 1: %v vs %v", w.name, m.name, a.Metrics[m.name], b.Metrics[m.name])
			}
		}
	}
}

// TestSeedChangesInputs checks that the seed reaches the programs: another
// seed explores other schedules.
func TestSeedChangesInputs(t *testing.T) {
	w, _ := workloadByName("explore")
	a := quickRun(t, w, 1, true)
	b := quickRun(t, w, 2, true)
	if a.Metrics["vm.decisions"] == b.Metrics["vm.decisions"] {
		t.Errorf("vm.decisions is %v with seed 1 and seed 2", a.Metrics["vm.decisions"].Value)
	}
}

// TestSpecMatchesCatalogue keeps BENCHMARK.json and the metric catalogue in
// step and checks the file against the benchmark description's limits.
func TestSpecMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type specMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(allWorkloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q is not run by the benchmark", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(list []specMetric, want []metric, bounded bool) {
		if len(list) != len(want) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the catalogue", len(list), len(want))
		}
		for i, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q / unit %q is not a valid name", m.Name, m.Unit)
			}
			if i < len(want) && (m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better) {
				t.Errorf("BENCHMARK.json has %s (%s, %s), catalogue has %s (%s, %s)",
					m.Name, m.Unit, m.Better, want[i].name, want[i].unit, want[i].better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("metric %s: bound present = %t", m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v out of (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	check(spec.EndToEnd, endToEnd, true)
	check(spec.PerLayer, perLayer, false)
}

func TestVerdict(t *testing.T) {
	m := metric{"items_per_s", "1/s", "higher", "wall"}
	samples := func(vs ...float64) []sample {
		out := make([]sample, len(vs))
		for i, v := range vs {
			out[i] = sample{int64(i + 1), v}
		}
		return out
	}
	base := samples(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		head []sample
		want string
	}{
		{samples(100, 100, 100, 101, 99, 100, 100, 101, 99, 100), "unchanged"},
		{samples(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), "improved"},
		{samples(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "worse"},
	}
	for _, c := range cases {
		if got := verdict(m, 0.1, true, base, c.head); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
	count := metric{"vm.decisions", "count", "lower", "count"}
	if got := verdict(count, 0, false, samples(5, 6), samples(5, 7)); got != "mismatch" {
		t.Errorf("count verdict = %s, want mismatch", got)
	}
}
