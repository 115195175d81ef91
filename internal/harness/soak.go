package harness

import (
	"fmt"
	"strings"
	"time"

	"kivati/internal/corpusgen"
	"kivati/internal/explore"
	"kivati/internal/pool"
)

// The soak harness: the differential oracle as a statistical gate. A soak
// run generates a labeled corpus (internal/corpusgen), sweeps every
// program through the differential oracle in both modes,
// and scores the verdicts against the ground-truth labels:
//
//   - an injected bug is *detected* when at least one vanilla schedule
//     diverges from the serial reference (recall);
//   - a benign decoy that diverges in any vanilla schedule is a *false
//     positive* (precision);
//   - any prevention-mode divergence, on any program, is an engine bug.
//
// Everything is deterministic: the corpus regenerates from (GenSeed,
// index), each program's exploration seeds derive from (Seed, index), and
// per-program campaigns run serially inside while programs fan out across
// the pool — so a soak report is byte-identical (timings aside) at any
// Parallelism, and any failure is replayable from the report alone.

// SoakOptions configure one soak run.
type SoakOptions struct {
	Programs  int              // corpus size (default 50)
	Seed      int64            // generator + exploration base seed (default 1)
	Schedules int              // schedule budget per program per mode (default 60)
	Strategy  explore.Strategy // default random
	// BenignEvery / Arrays / Iters pass through to corpusgen.Options.
	// Arrays enables both array decoy shapes: the runtime-sized ring
	// (Unbounded footprints) and the static-bound sweep (bounded
	// footprints), so one flag covers both ends of the footprint analysis.
	BenignEvery int
	Arrays      bool
	Iters       int
	Cores       int    // simulated cores per campaign (default 1)
	Quantum     uint64 // preemption quantum override (0 = strategy default)
	Parallelism int    // program-level worker pool (0 = GOMAXPROCS)
}

// withDefaults fills in the defaults and rejects a negative worker count,
// which the pool would silently widen to GOMAXPROCS.
func (o SoakOptions) withDefaults() (SoakOptions, error) {
	if o.Parallelism < 0 {
		return o, fmt.Errorf("soak: Parallelism %d is negative", o.Parallelism)
	}
	if o.Programs == 0 {
		o.Programs = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Schedules == 0 {
		o.Schedules = 60
	}
	if o.Strategy == "" {
		o.Strategy = explore.Random
	}
	return o, nil
}

// genOptions is the corpusgen configuration a soak run derives from its
// own options; exposed so tests and replays regenerate the same corpus.
func (o SoakOptions) genOptions() corpusgen.Options {
	return corpusgen.Options{
		Count:         o.Programs,
		Seed:          o.Seed,
		BenignEvery:   o.BenignEvery,
		Arrays:        o.Arrays,
		BoundedArrays: o.Arrays,
		Iters:         o.Iters,
		Parallelism:   o.Parallelism,
	}
}

// exploreSeed derives program index's exploration base seed: a wide prime
// stride keeps the per-schedule seeds (base+k) of different programs from
// overlapping at any realistic schedule budget.
func (o SoakOptions) exploreSeed(index int) int64 {
	return o.Seed + int64(index+1)*1_000_003
}

// SoakProgram is one program's verdict row.
type SoakProgram struct {
	Name        string   `json:"name"`
	Index       int      `json:"index"`
	Category    string   `json:"category"`
	Expect      string   `json:"expect"`
	WitnessVars []string `json:"witness_vars,omitempty"`
	// VanillaDivergences / PreventionDivergences count divergent schedules
	// out of the per-mode budget.
	VanillaDivergences    int `json:"vanilla_divergences"`
	PreventionDivergences int `json:"prevention_divergences"`
	// Detected: an injected bug with >= 1 vanilla divergence.
	Detected bool `json:"detected,omitempty"`
	// FalsePositive: a benign decoy with >= 1 vanilla divergence.
	FalsePositive bool    `json:"false_positive,omitempty"`
	Seconds       float64 `json:"seconds,omitempty"`
}

// SoakCategory aggregates one category's rows.
type SoakCategory struct {
	Category              string  `json:"category"`
	Programs              int     `json:"programs"`
	Detected              int     `json:"detected"`
	Missed                int     `json:"missed"`
	FalsePositives        int     `json:"false_positives"`
	VanillaDivergences    int     `json:"vanilla_divergences"`
	PreventionDivergences int     `json:"prevention_divergences"`
	Precision             float64 `json:"precision"`
	Recall                float64 `json:"recall"`
}

// SoakReport is the kivati-soak/v1 output.
type SoakReport struct {
	Schema     string           `json:"schema"`
	GenSeed    int64            `json:"gen_seed"`
	Corpus     int              `json:"corpus_size"`
	Schedules  int              `json:"schedules"`
	Strategy   explore.Strategy `json:"strategy"`
	Programs   []SoakProgram    `json:"programs"`
	Categories []SoakCategory   `json:"categories"`
	// Aggregates. Precision = detected/(detected+false positives), recall
	// = detected/bugs; both 1.0 over an empty denominator.
	Bugs                  int     `json:"bugs"`
	Benign                int     `json:"benign"`
	Detected              int     `json:"detected"`
	Missed                int     `json:"missed"`
	FalsePositives        int     `json:"false_positives"`
	PreventionDivergences int     `json:"prevention_divergences"`
	Precision             float64 `json:"precision"`
	Recall                float64 `json:"recall"`
	TotalSeconds          float64 `json:"total_seconds,omitempty"`
	SchedulesPerSec       float64 `json:"schedules_per_sec,omitempty"`
}

// ratio is precision/recall's forgiving division: 1.0 over an empty
// denominator (no claims made, none wrong).
func ratio(num, den int) float64 {
	if den == 0 {
		return 1.0
	}
	return float64(num) / float64(den)
}

// RunSoak generates the corpus and sweeps it through the differential
// oracle.
func RunSoak(opts SoakOptions) (*SoakReport, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	progs, err := corpusgen.Generate(o.genOptions())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	jobs := make([]func() (SoakProgram, error), len(progs))
	for i, p := range progs {
		i, p := i, p
		jobs[i] = func() (SoakProgram, error) {
			t0 := time.Now()
			d, err := explore.Differential(explore.GenSubject(p, len(progs)), explore.Options{
				Strategy:  o.Strategy,
				Schedules: o.Schedules,
				Seed:      o.exploreSeed(p.Index),
				Quantum:   o.Quantum,
				Cores:     o.Cores,
				// Campaigns are serial inside; programs are the unit of
				// fan-out, which keeps every campaign's session count at 1
				// and the report independent of Parallelism.
				Parallelism: 1,
			})
			if err != nil {
				return SoakProgram{}, fmt.Errorf("soak: %s: %w", p.Name, err)
			}
			row := SoakProgram{
				Name:                  p.Name,
				Index:                 p.Index,
				Category:              string(p.Category),
				Expect:                string(p.Expect),
				WitnessVars:           p.WitnessVars,
				VanillaDivergences:    d.VanillaDivergences(),
				PreventionDivergences: d.PreventionDivergences(),
				Seconds:               time.Since(t0).Seconds(),
			}
			if p.Expect == corpusgen.ExpectBug {
				row.Detected = row.VanillaDivergences > 0
			} else {
				row.FalsePositive = row.VanillaDivergences > 0
			}
			return row, nil
		}
	}
	rows, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	rep := &SoakReport{
		Schema:    "kivati-soak/v1",
		GenSeed:   o.Seed,
		Corpus:    len(progs),
		Schedules: o.Schedules,
		Strategy:  o.Strategy,
		Programs:  rows,
	}
	byCat := map[string]*SoakCategory{}
	for _, r := range rows {
		c, ok := byCat[r.Category]
		if !ok {
			c = &SoakCategory{Category: r.Category}
			byCat[r.Category] = c
		}
		c.Programs++
		c.VanillaDivergences += r.VanillaDivergences
		c.PreventionDivergences += r.PreventionDivergences
		rep.PreventionDivergences += r.PreventionDivergences
		if r.Expect == string(corpusgen.ExpectBug) {
			rep.Bugs++
			if r.Detected {
				c.Detected++
				rep.Detected++
			} else {
				c.Missed++
				rep.Missed++
			}
		} else {
			rep.Benign++
			if r.FalsePositive {
				c.FalsePositives++
				rep.FalsePositives++
			}
		}
	}
	for _, cat := range corpusgen.Categories() {
		c, ok := byCat[string(cat)]
		if !ok {
			continue
		}
		c.Precision = ratio(c.Detected, c.Detected+c.FalsePositives)
		c.Recall = ratio(c.Detected, c.Detected+c.Missed)
		rep.Categories = append(rep.Categories, *c)
	}
	rep.Precision = ratio(rep.Detected, rep.Detected+rep.FalsePositives)
	rep.Recall = ratio(rep.Detected, rep.Bugs)
	rep.TotalSeconds = time.Since(start).Seconds()
	if rep.TotalSeconds > 0 {
		rep.SchedulesPerSec = float64(2*len(progs)*o.Schedules) / rep.TotalSeconds
	}
	return rep, nil
}

// Gate enforces the soak thresholds: zero prevention-mode divergences
// (anything else is an engine bug) and zero benign false positives. With
// strict it additionally requires 100% recall — every injected bug found.
func (r *SoakReport) Gate(strict bool) error {
	if r.PreventionDivergences > 0 {
		return fmt.Errorf("soak gate: ENGINE BUG: %d prevention-mode schedules diverged from the serial result",
			r.PreventionDivergences)
	}
	if r.FalsePositives > 0 {
		return fmt.Errorf("soak gate: %d benign decoys flagged as divergent (false positives)",
			r.FalsePositives)
	}
	if strict && r.Missed > 0 {
		return fmt.Errorf("soak gate: %d/%d injected bugs never diverged under vanilla exploration",
			r.Missed, r.Bugs)
	}
	return nil
}

// String renders the per-category table plus the aggregate line.
func (r *SoakReport) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "soak: %d programs (seed %d), %d schedules/mode, %s\n",
		r.Corpus, r.GenSeed, r.Schedules, r.Strategy)
	fmt.Fprintf(&s, "%-8s %9s %9s %7s %6s %10s %10s\n",
		"category", "programs", "detected", "missed", "fps", "precision", "recall")
	for _, c := range r.Categories {
		fmt.Fprintf(&s, "%-8s %9d %9d %7d %6d %10.3f %10.3f\n",
			c.Category, c.Programs, c.Detected, c.Missed, c.FalsePositives, c.Precision, c.Recall)
	}
	fmt.Fprintf(&s, "overall: %d bugs detected=%d missed=%d, %d benign fps=%d, precision=%.3f recall=%.3f, prevention divergences=%d\n",
		r.Bugs, r.Detected, r.Missed, r.Benign, r.FalsePositives, r.Precision, r.Recall, r.PreventionDivergences)
	if r.TotalSeconds > 0 {
		fmt.Fprintf(&s, "%.1fs, %.0f schedules/sec\n", r.TotalSeconds, r.SchedulesPerSec)
	}
	return s.String()
}
