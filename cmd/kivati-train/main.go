// kivati-train runs the whitelist training procedure of §4.2: a MiniC
// program is executed repeatedly, every violated atomic region that is not a
// known bug is added to the whitelist, and the resulting whitelist is saved
// for deployment.
//
// Usage:
//
//	kivati-train -iters 7 -out whitelist.txt [-bugvars s1,s2] file.mc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kivati"
)

func main() {
	iters := flag.Int("iters", 7, "training iterations")
	out := flag.String("out", "whitelist.txt", "output whitelist file")
	bugVars := flag.String("bugvars", "", "comma-separated shared variables that are real bugs (never whitelisted)")
	mode := flag.String("mode", "bugfinding", "prevention | bugfinding (bug-finding surfaces more per iteration)")
	seed := flag.Int64("seed", 1, "scheduler seed")
	maxTicks := flag.Uint64("maxticks", 500_000_000, "virtual-time budget per iteration")
	entry := flag.String("start", "main", "entry function")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kivati-train [flags] file.mc\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *mode != "prevention" && *mode != "bugfinding" {
		fatal(fmt.Errorf("-mode %q: want prevention or bugfinding", *mode))
	}
	if *iters < 0 {
		fatal(fmt.Errorf("-iters %d is negative", *iters))
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, err := kivati.Build(string(src))
	if err != nil {
		fatal(err)
	}
	// Seed with the synchronization-variable whitelist (optimization 4).
	wl, err := p.SyncVarWhitelist()
	if err != nil {
		fatal(err)
	}
	cfg := kivati.Config{
		Opt:       kivati.OptOptimized,
		Seed:      *seed,
		MaxTicks:  *maxTicks,
		Whitelist: wl,
		Starts:    []kivati.Start{{Fn: *entry}},
	}
	if *mode == "bugfinding" {
		cfg.Mode = kivati.BugFinding
		cfg.PauseTicks = 20_000
		cfg.PauseEvery = 64
	}
	var bugs []string
	if *bugVars != "" {
		bugs = strings.Split(*bugVars, ",")
	}

	tr, err := kivati.Train(p, cfg, *iters, bugs)
	if err != nil {
		fatal(err)
	}
	for i, n := range tr.NewFPs {
		fmt.Printf("iteration %d: %d new false positive(s)\n", i+1, n)
	}
	if err := tr.Whitelist.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d benign AR id(s) to %s\n", tr.Whitelist.Len(), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kivati-train:", err)
	os.Exit(1)
}
