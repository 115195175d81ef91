// kivati-soak scales the differential oracle from the 11 hand-written
// bugs to a generated corpus: it emits N labeled MiniC programs with
// injected atomicity-violation shapes (plus correctly locked benign
// decoys), sweeps each through the differential oracle in
// both modes, and scores the verdicts against the ground-truth labels.
// With -load it also runs the open-loop latency driver against a server
// workload — the heavy-traffic half of the soak story.
//
// Usage:
//
//	kivati-soak                                  # 50 programs, 60 schedules/mode
//	kivati-soak -n 200 -schedules 40 -seed 1     # the acceptance-scale sweep
//	kivati-soak -n 24 -schedules 40 -gate -strict   # the CI smoke gate
//	kivati-soak -arrays                          # add indirect-access decoys
//	kivati-soak -load -load-requests 240         # append the latency driver
//	kivati-soak -n 0 -load                       # latency driver only
//	kivati-soak -json                            # machine-readable report
//
// Every soak failure is replayable from the report alone: program k of a
// corpus regenerates from (gen_seed, k), and its exploration seeds derive
// from the same base seed (kivati-explore -gen N -gen-seed S explores the
// same corpus and can record traces).
//
// Exit status is nonzero if any prevention-mode schedule diverged (always
// an engine bug), or — under -gate — if any benign decoy was flagged,
// or — under -strict — if any injected bug went undetected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"kivati/internal/explore"
	"kivati/internal/harness"
)

func main() {
	n := flag.Int("n", 50, "generated corpus size (0 = skip the corpus soak)")
	seed := flag.Int64("seed", 1, "generator + exploration base seed")
	schedules := flag.Int("schedules", 60, "schedule budget per program per mode")
	strategy := flag.String("strategy", "random", "schedule strategy: random or dfs")
	benignEvery := flag.Int("benign-every", 5, "every k-th program is a benign decoy (negative disables)")
	arrays := flag.Bool("arrays", false, "add array decoys: runtime-sized rings (Unbounded footprints) and static-bound sweeps (bounded footprints)")
	iters := flag.Int("iters", 0, "per-thread iteration budget (0 = default 12)")
	cores := flag.Int("cores", 1, "simulated cores per campaign")
	quantum := flag.Uint64("quantum", 0, "preemption quantum override (0 = strategy default)")
	parallel := flag.Int("parallel", 0, "program-level worker pool size (0 = GOMAXPROCS, 1 = serial)")
	gate := flag.Bool("gate", false, "exit nonzero on any benign false positive")
	strict := flag.Bool("strict", false, "with -gate: also exit nonzero on any missed bug (100% recall required)")
	load := flag.Bool("load", false, "also run the open-loop latency driver")
	workload := flag.String("workload", "Webstone", "load: server workload (Webstone or TPC-W)")
	loadRequests := flag.Int("load-requests", 240, "load: target request count")
	loadInterarrival := flag.Uint64("load-interarrival", 900, "load: mean request interarrival in ticks")
	jsonOut := flag.Bool("json", false, "emit a JSON report instead of text")
	flag.Parse()
	if *n < 0 {
		check(fmt.Errorf("-n %d is negative", *n))
	}

	var rep *harness.SoakReport
	if *n > 0 {
		var err error
		rep, err = harness.RunSoak(harness.SoakOptions{
			Programs:    *n,
			Seed:        *seed,
			Schedules:   *schedules,
			Strategy:    explore.Strategy(*strategy),
			BenignEvery: *benignEvery,
			Arrays:      *arrays,
			Iters:       *iters,
			Cores:       *cores,
			Quantum:     *quantum,
			Parallelism: *parallel,
		})
		check(err)
	} else if !*load {
		fmt.Fprintln(os.Stderr, "kivati-soak: nothing to do (-n 0 without -load)")
		os.Exit(2)
	}

	if *load {
		lrep, err := harness.RunLoad(harness.LoadOptions{
			Workload:         *workload,
			Requests:         *loadRequests,
			MeanInterarrival: *loadInterarrival,
			Seed:             *seed,
			Parallelism:      *parallel,
		})
		check(err)
		if rep == nil {
			rep = &harness.SoakReport{Schema: "kivati-soak/v1", GenSeed: *seed}
		}
		rep.Load = lrep
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	} else {
		if rep.Corpus > 0 {
			fmt.Print(rep.String())
		}
		if rep.Load != nil {
			fmt.Print(rep.Load.String())
		}
	}

	// A prevention-mode divergence is an engine bug regardless of -gate.
	if rep.PreventionDivergences > 0 {
		fmt.Fprintf(os.Stderr, "kivati-soak: ENGINE BUG: %d prevention-mode schedules diverged from the serial result\n",
			rep.PreventionDivergences)
		os.Exit(1)
	}
	if *gate && rep.Corpus > 0 {
		if err := rep.Gate(*strict); err != nil {
			fmt.Fprintln(os.Stderr, "kivati-soak:", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Println("soak gate: ok")
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kivati-soak:", err)
		os.Exit(1)
	}
}
