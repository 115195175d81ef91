// kivati-soak scales the differential oracle from the 11 hand-written
// bugs to a generated corpus: it emits N labeled MiniC programs with
// injected atomicity-violation shapes (plus correctly locked benign
// decoys), sweeps each through the differential oracle in
// both modes, and scores the verdicts against the ground-truth labels.
// Request-latency percentiles live in Table 5 (kivati-bench -table 5
// -json), not here.
//
// Usage:
//
//	kivati-soak                                  # 50 programs, 60 schedules/mode
//	kivati-soak -n 200 -schedules 40 -seed 1     # the acceptance-scale sweep
//	kivati-soak -n 24 -schedules 40 -gate -strict   # the CI smoke gate
//	kivati-soak -arrays                          # add indirect-access decoys
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
	n := flag.Int("n", 50, "generated corpus size")
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
	jsonOut := flag.Bool("json", false, "emit a JSON report instead of text")
	flag.Parse()
	if *n <= 0 {
		check(fmt.Errorf("-n %d is not a corpus size", *n))
	}

	rep, err := harness.RunSoak(harness.SoakOptions{
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

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	} else {
		fmt.Print(rep.String())
	}

	// A prevention-mode divergence is an engine bug regardless of -gate.
	if rep.PreventionDivergences > 0 {
		fmt.Fprintf(os.Stderr, "kivati-soak: ENGINE BUG: %d prevention-mode schedules diverged from the serial result\n",
			rep.PreventionDivergences)
		os.Exit(1)
	}
	if *gate {
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
