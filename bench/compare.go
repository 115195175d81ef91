package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runCompare compares two sets of runs recorded with -record, typically the
// parent commit (base) and a change (head) run on the same seeds. For
// every (workload, metric) both sides report it prints each side's median
// and quartiles and a verdict:
//
//   - improved: head is better in at least 9 of 10 seed pairs and the
//     medians differ by more than base's interquartile range;
//   - worse: head's median is worse than base's by more than the metric's
//     bound in BENCHMARK.json (per-layer metrics have none: worse means
//     the mirror image of improved);
//   - unresolved: base's own spread is wider than the bound and head does
//     not beat every base run;
//   - unchanged: none of the above;
//   - mismatch: a count or virtual metric differs on some seed — those
//     must match exactly.
//
// It exits 1 when any row is worse or a mismatch.
func runCompare(specPath, basePath, headPath string, stdout, stderr io.Writer) int {
	bounds, err := readBounds(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	head, err := readRecords(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-8s %-32s %5s %30s %30s  %s\n", "workload", "metric", "runs", "base median [q1, q3]", "head median [q1, q3]", "verdict")
	code := 0
	for _, w := range allWorkloads {
		for _, list := range [][]metric{endToEnd, perLayer} {
			for _, m := range list {
				b, h := base[w.name][m.name], head[w.name][m.name]
				if len(b) == 0 || len(h) == 0 {
					continue
				}
				bound, hasBound := bounds[m.name]
				v := verdict(m, bound, hasBound, b, h)
				if v == "worse" || v == "mismatch" {
					code = 1
				}
				fmt.Fprintf(stdout, "%-8s %-32s %2d/%-2d %30s %30s  %s\n", w.name, m.name, len(b), len(h),
					quartiles(values(b)), quartiles(values(h)), v)
			}
		}
	}
	return code
}

// sample is one run's value of one metric.
type sample struct {
	seed  int64
	value float64
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// readRecords loads a -record file as workload → metric → samples.
func readRecords(path string) (map[string]map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s:%d: no result", path, line)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]sample{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], sample{r.Seed, v.Value})
		}
	}
	return out, sc.Err()
}

// readBounds loads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// pairs matches base and head runs by seed.
func pairs(base, head []sample) [][2]float64 {
	bySeed := map[int64]float64{}
	for _, s := range base {
		bySeed[s.seed] = s.value
	}
	var out [][2]float64
	for _, s := range head {
		if b, ok := bySeed[s.seed]; ok {
			out = append(out, [2]float64{b, s.value})
			delete(bySeed, s.seed)
		}
	}
	return out
}

func verdict(m metric, bound float64, hasBound bool, base, head []sample) string {
	ps := pairs(base, head)
	if m.kind == "count" || m.kind == "virtual" {
		if len(ps) == 0 {
			return "unresolved"
		}
		for _, p := range ps {
			if p[0] != p[1] {
				return "mismatch"
			}
		}
		return "unchanged"
	}
	// gain > 0 means head is better than base by that much.
	gain := func(b, h float64) float64 {
		if m.better == "higher" {
			return h - b
		}
		return b - h
	}
	bv, hv := sortedCopy(values(base)), sortedCopy(values(head))
	bm, hm := quantile(bv, 0.5), quantile(hv, 0.5)
	iqr := quantile(bv, 0.75) - quantile(bv, 0.25)
	wins, losses := 0, 0
	for _, p := range ps {
		switch g := gain(p[0], p[1]); {
		case g > 0:
			wins++
		case g < 0:
			losses++
		}
	}
	d := gain(bm, hm)
	enough := func(n int) bool { return len(ps) > 0 && float64(n) >= 0.9*float64(len(ps)) }
	if d > iqr && enough(wins) {
		return "improved"
	}
	if !hasBound {
		if -d > iqr && enough(losses) {
			return "worse"
		}
		return "unchanged"
	}
	if bm != 0 && -d/math.Abs(bm) > bound {
		return "worse"
	}
	allBetter := (m.better == "higher" && hv[0] > bv[len(bv)-1]) ||
		(m.better == "lower" && hv[len(hv)-1] < bv[0])
	if bm != 0 && iqr/math.Abs(bm) > bound && !allBetter {
		return "unresolved"
	}
	return "unchanged"
}
