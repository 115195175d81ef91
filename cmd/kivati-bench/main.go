// kivati-bench regenerates the tables and figures of the paper's evaluation
// section (§4) on the simulated substrate.
//
// Usage:
//
//	kivati-bench -all                # every table and figure
//	kivati-bench -table 3            # one table (1-9)
//	kivati-bench -figure 7           # Figure 7
//	kivati-bench -ablation           # trained vs. static (lockset) whitelist
//	kivati-bench -all -scale 0.5     # larger workloads
//	kivati-bench -all -parallel 8    # fan runs out over 8 workers
//	kivati-bench -all -json          # machine-readable report on stdout
//
// The independent VM runs inside each table fan out across a worker pool
// (-parallel, default GOMAXPROCS); output is byte-identical at every
// parallelism level. Per-target wall-clock timings go to stderr so stdout
// stays comparable across runs; -json swaps the rendered tables for one
// JSON report with rows, durations and build-cache counters. -cpuprofile
// and -memprofile capture pprof data for the whole sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"kivati/internal/harness"
)

// target is one table or figure regeneration: its rendered text, its
// structured rows, and how long it took.
type target struct {
	Target  string  `json:"target"`
	Seconds float64 `json:"seconds"`
	Result  any     `json:"result"`

	text string
}

// report is the -json output: everything a perf trajectory needs to track
// sweep time and per-table results across commits.
type report struct {
	Schema       string          `json:"schema"`
	Options      harness.Options `json:"options"`
	Parallelism  int             `json:"parallelism"`
	Targets      []target        `json:"targets"`
	CacheHits    uint64          `json:"build_cache_hits"`
	CacheMisses  uint64          `json:"build_cache_misses"`
	TotalSeconds float64         `json:"total_seconds"`
}

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-9)")
	figure := flag.Int("figure", 0, "regenerate one figure (7)")
	all := flag.Bool("all", false, "regenerate everything")
	ablation := flag.Bool("ablation", false, "run the trained-vs-static whitelist ablation")
	scale := flag.Float64("scale", 0.25, "workload scale (1.0 = full benchmark)")
	seed := flag.Int64("seed", 1, "scheduler seed")
	iters := flag.Int("train-iters", 7, "Figure 7 training iterations")
	ablIters := flag.Int("ablation-iters", 10, "training iterations in the ablation")
	parallel := flag.Int("parallel", 0, "worker pool size for independent runs (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of rendered tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	o := harness.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel}
	if !*all && *table == 0 && *figure == 0 && !*ablation {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}

	// Mirror the harness's resolution (Options.parallelism) so the
	// reported number is the effective worker count, including for
	// nonsensical negative values.
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := report{Schema: "kivati-bench/v1", Options: o, Parallelism: workers}

	// run executes one target, records its structured result and timing,
	// and (outside -json mode) prints the rendered table to stdout and the
	// timing to stderr, keeping stdout byte-comparable across parallelism
	// levels.
	run := func(name string, fn func() (any, string, error)) {
		start := time.Now()
		res, text, err := fn()
		check(err)
		secs := time.Since(start).Seconds()
		rep.Targets = append(rep.Targets, target{Target: name, Seconds: secs, Result: res, text: text})
		if !*jsonOut {
			fmt.Println(text)
			fmt.Fprintf(os.Stderr, "# %s: %.2fs (parallelism %d)\n", name, secs, workers)
		}
	}

	runTable := func(n int) {
		switch n {
		case 1:
			run("table1", func() (any, string, error) {
				s := harness.Table1()
				return s, s, nil
			})
		case 2:
			run("table2", func() (any, string, error) {
				s := harness.Table2(o)
				return s, s, nil
			})
		case 3:
			run("table3", func() (any, string, error) {
				res, err := harness.RunTable3(o)
				if err != nil {
					return nil, "", err
				}
				return res, res.String(), nil
			})
		case 4:
			run("table4", func() (any, string, error) {
				res, err := harness.RunTable4(o)
				if err != nil {
					return nil, "", err
				}
				return res, res.String(), nil
			})
		case 5:
			run("table5", func() (any, string, error) {
				rows, err := harness.RunTable5(o)
				if err != nil {
					return nil, "", err
				}
				return rows, harness.FormatTable5(rows), nil
			})
		case 6:
			run("table6", func() (any, string, error) {
				rows, err := harness.RunTable6(harness.Options{Seed: *seed, Parallelism: *parallel})
				if err != nil {
					return nil, "", err
				}
				return rows, harness.FormatTable6(rows), nil
			})
		case 7:
			run("table7", func() (any, string, error) {
				rows, err := harness.RunTable7(o)
				if err != nil {
					return nil, "", err
				}
				return rows, harness.FormatTable7(rows), nil
			})
		case 8:
			run("table8", func() (any, string, error) {
				rows, err := harness.RunTable8(o)
				if err != nil {
					return nil, "", err
				}
				return rows, harness.FormatTable8(rows), nil
			})
		case 9:
			run("table9", func() (any, string, error) {
				res, err := harness.RunTable9(o)
				if err != nil {
					return nil, "", err
				}
				return res, res.String(), nil
			})
		default:
			check(fmt.Errorf("no table %d", n))
		}
	}
	runAblation := func() {
		run("ablation", func() (any, string, error) {
			rows, err := harness.RunAblation(o, *ablIters)
			if err != nil {
				return nil, "", err
			}
			return rows, harness.FormatAblation(rows), nil
		})
	}
	runFigure := func(n int) {
		switch n {
		case 7:
			run("figure7", func() (any, string, error) {
				rs, err := harness.RunFigure7(o, *iters)
				if err != nil {
					return nil, "", err
				}
				return rs, harness.FormatFigure7(rs), nil
			})
		default:
			check(fmt.Errorf("no figure %d", n))
		}
	}

	sweepStart := time.Now()
	switch {
	case *all:
		for n := 1; n <= 9; n++ {
			runTable(n)
		}
		runFigure(7)
		runAblation()
	default:
		if *table != 0 {
			runTable(*table)
		}
		if *figure != 0 {
			runFigure(*figure)
		}
		if *ablation {
			runAblation()
		}
	}
	rep.TotalSeconds = time.Since(sweepStart).Seconds()
	rep.CacheHits, rep.CacheMisses = harness.BuildCacheStats()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	} else {
		fmt.Fprintf(os.Stderr, "# sweep: %.2fs total, build cache %d hits / %d misses\n",
			rep.TotalSeconds, rep.CacheHits, rep.CacheMisses)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kivati-bench:", err)
		os.Exit(1)
	}
}
