// kivati-explore runs the schedule-exploration differential oracle over the
// bug corpus: it explores many thread interleavings of a bounded fixture in
// both vanilla and prevention mode and compares every final snapshot against
// the serial reference.
//
// Usage:
//
//	kivati-explore -bug NSS/341323              # one bug, 500 random schedules
//	kivati-explore -all                         # the whole 11-bug corpus
//	kivati-explore -bug NSS/341323 -strategy dfs -bound 3
//	kivati-explore -bug NSS/341323 -strategy dfs -dpor    # prune swap-redundant schedules
//	kivati-explore -bug Apache/44402 -strategy dfs -cores 2 # multi-core DFS, resumed from snapshots
//	kivati-explore -bug NSS/341323 -trace-dir traces   # record divergent schedules
//	kivati-explore -replay traces/NSS-341323-vanilla-17.json
//	kivati-explore -gen 20 -gen-seed 1          # a generated 20-program corpus
//	kivati-explore -all -json                   # machine-readable report
//
// Exit status is nonzero if any prevention-mode schedule diverges from the
// serial result (an engine bug) or if a replayed trace fails to reproduce
// its recorded outcome.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kivati/internal/bugs"
	"kivati/internal/corpusgen"
	"kivati/internal/explore"
)

// schema versions the -json report; a field that changes meaning or goes
// away needs a new version.
const schema = "kivati-explore/v5"

// report is the -json output.
type report struct {
	Schema    string           `json:"schema"`
	Strategy  explore.Strategy `json:"strategy"`
	DPOR      bool             `json:"dpor,omitempty"`
	Schedules int              `json:"schedules"`
	Seed      int64            `json:"seed"`
	Bound     int              `json:"bound,omitempty"`
	// GenSeed and Corpus identify a generated corpus (-gen): with the
	// generator's determinism guarantee they make every subject — and so
	// every recorded trace — replayable from this report alone.
	GenSeed      *int64                `json:"gen_seed,omitempty"`
	Corpus       int                   `json:"corpus_size,omitempty"`
	Subjects     []*explore.DiffReport `json:"subjects"`
	TotalSeconds float64               `json:"total_seconds"`
	// SchedulesPerSec is executed runs per wall-clock second.
	SchedulesPerSec float64 `json:"schedules_per_sec"`

	// Totals over subjects and modes. Runs is below the schedule budget
	// when a DFS frontier runs out or DPOR prunes, so the rate divides
	// Runs, never the budget. Decisions counts scheduler decision points;
	// DeltaArms/FullArms split the watchpoint adoptions at kernel crossings
	// into those that found the core already current and those that copied
	// the canonical register file.
	Runs int `json:"runs"`
	explore.EngineStats
	Decisions uint64 `json:"decisions"`
	DeltaArms uint64 `json:"delta_arms"`
	FullArms  uint64 `json:"full_arms"`
}

// add appends one subject's differential report and adds it to the totals.
func (r *report) add(d *explore.DiffReport) {
	r.Subjects = append(r.Subjects, d)
	for _, mr := range []*explore.Report{d.Vanilla, d.Prevention} {
		r.Runs += len(mr.Runs)
		r.Snapshots += mr.Stats.Snapshots
		r.Restores += mr.Stats.Restores
		r.Resumed += mr.Stats.Resumed
		r.Pruned += mr.Stats.Pruned
		for _, run := range mr.Runs {
			r.Decisions += uint64(run.Decisions)
			r.DeltaArms += run.DeltaArms
			r.FullArms += run.FullArms
		}
	}
}

func main() {
	bug := flag.String("bug", "", "explore one bug (App/ID, e.g. NSS/341323)")
	all := flag.Bool("all", false, "explore the whole 11-bug corpus")
	gen := flag.Int("gen", 0, "explore a generated corpus of this many programs instead of the hand-written bugs")
	genSeed := flag.Int64("gen-seed", 1, "generated corpus base seed")
	genArrays := flag.Bool("gen-arrays", false, "generated corpus: add indirect-access ring decoys")
	strategy := flag.String("strategy", "random", "schedule strategy: random or dfs")
	n := flag.Int("n", 500, "schedule budget per mode")
	bound := flag.Int("bound", 3, "dfs: max preemption-point deviations")
	horizon := flag.Int("horizon", 0, "dfs: only the first N decisions spawn children (0 = default 64)")
	seed := flag.Int64("seed", 1, "base seed (random: schedule k uses seed+k)")
	quantum := flag.Uint64("quantum", 0, "preemption quantum override (0 = strategy default)")
	cores := flag.Int("cores", 1, "simulated cores")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	dpor := flag.Bool("dpor", false, "dfs: prune swap-redundant schedules via recorded access streams (single core)")
	traceDir := flag.String("trace-dir", "", "record a replayable trace for every divergent schedule into this directory")
	replay := flag.String("replay", "", "replay one recorded trace file and verify it reproduces")
	jsonOut := flag.Bool("json", false, "emit a JSON report instead of text")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	if *replay != "" {
		runReplay(*replay, *jsonOut)
		return
	}

	opts := explore.Options{
		Strategy:    explore.Strategy(*strategy),
		Schedules:   *n,
		Seed:        *seed,
		Bound:       *bound,
		Horizon:     *horizon,
		Quantum:     *quantum,
		Cores:       *cores,
		Parallelism: *parallel,
		DPOR:        *dpor,
	}
	if *gen < 0 {
		check(fmt.Errorf("-gen %d is negative", *gen))
	}
	if *bug == "" && !*all && *gen == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var subjects []*explore.Subject
	if *gen > 0 {
		progs, err := corpusgen.Generate(corpusgen.Options{Count: *gen, Seed: *genSeed, Arrays: *genArrays})
		check(err)
		for _, p := range progs {
			subjects = append(subjects, explore.GenSubject(p, len(progs)))
		}
	} else if *all {
		for _, b := range bugs.Corpus() {
			s, err := explore.BugSubject(b)
			check(err)
			subjects = append(subjects, s)
		}
	} else {
		app, id, ok := strings.Cut(*bug, "/")
		if !ok {
			check(fmt.Errorf("bad -bug %q: want App/ID", *bug))
		}
		b, err := bugs.ByID(app, id)
		check(err)
		s, err := explore.BugSubject(b)
		check(err)
		subjects = append(subjects, s)
	}

	rep := report{
		Schema:    schema,
		Strategy:  opts.Strategy,
		DPOR:      *dpor,
		Schedules: *n,
		Seed:      *seed,
	}
	if opts.Strategy == explore.DFS {
		rep.Bound = *bound
	}
	if *gen > 0 {
		rep.GenSeed = genSeed
		rep.Corpus = *gen
	}
	check(sweep(&rep, subjects, opts, *traceDir, !*jsonOut))

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	}
	engineBugs := 0
	for _, d := range rep.Subjects {
		engineBugs += d.PreventionDivergences()
	}
	if engineBugs > 0 {
		fmt.Fprintf(os.Stderr, "kivati-explore: ENGINE BUG: %d prevention-mode schedules diverged from the serial result\n", engineBugs)
		os.Exit(1)
	}
}

// sweep runs the differential oracle on every subject and adds each report
// to rep, recording a trace of every divergent schedule under traceDir if
// it is set. verbose prints each subject's verdicts to stdout and its wall
// time and trace files to stderr.
func sweep(rep *report, subjects []*explore.Subject, opts explore.Options, traceDir string, verbose bool) error {
	start := time.Now()
	for _, s := range subjects {
		t0 := time.Now()
		d, err := explore.Differential(s, opts)
		if err != nil {
			return err
		}
		if verbose {
			fmt.Printf("%-14s serial=%s  vanilla: %d/%d diverged  prevention: %d/%d diverged\n",
				d.Subject, fmtSnapshot(d.Serial),
				d.VanillaDivergences(), len(d.Vanilla.Runs),
				d.PreventionDivergences(), len(d.Prevention.Runs))
			fmt.Fprintf(os.Stderr, "# %s: %.2fs\n", d.Subject, time.Since(t0).Seconds())
		}
		rep.add(d)
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return err
			}
			if err := writeTraces(traceDir, s, explore.Vanilla, opts, d.Vanilla, !verbose); err != nil {
				return err
			}
			if err := writeTraces(traceDir, s, explore.Prevention, opts, d.Prevention, !verbose); err != nil {
				return err
			}
		}
	}
	rep.TotalSeconds = time.Since(start).Seconds()
	if rep.TotalSeconds > 0 {
		rep.SchedulesPerSec = float64(rep.Runs) / rep.TotalSeconds
	}
	return nil
}

// writeTraces records one replayable trace per divergent schedule.
func writeTraces(dir string, s *explore.Subject, mode explore.Mode, opts explore.Options, rep *explore.Report, quiet bool) error {
	for _, r := range rep.Runs {
		if !r.Diverged {
			continue
		}
		tr, err := explore.RecordTrace(s, mode, opts, r)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-%s-%d.json", strings.ReplaceAll(s.Name, "/", "-"), mode, r.Index)
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "# trace: %s\n", path)
		}
	}
	return nil
}

func runReplay(path string, jsonOut bool) {
	tr, err := explore.ReadTrace(path)
	check(err)
	res, err := explore.Replay(tr)
	check(err)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(res))
	} else {
		fmt.Printf("%s [%s] schedule %d: snapshot=%s serial=%s diverged=%v mismatches=%d\n",
			tr.Subject, tr.Mode, tr.Index, fmtSnapshot(res.Run.Snapshot),
			fmtSnapshot(tr.Serial), res.Run.Diverged, res.Mismatches)
	}
	if !res.Verdict {
		fmt.Fprintln(os.Stderr, "kivati-explore: replay did NOT reproduce the recorded outcome")
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Println("replay reproduced the recorded outcome")
	}
}

// fmtSnapshot renders a snapshot in sorted-key order.
func fmtSnapshot(m map[string]int64) string {
	b, _ := json.Marshal(m) // map keys sort in encoding/json
	return string(b)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kivati-explore:", err)
		os.Exit(1)
	}
}
