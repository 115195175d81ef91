package main

import (
	"fmt"
	"os"
	"time"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/corpusgen"
	"kivati/internal/workloads"
)

// build is the "build one program" job: every source goes through
// minic.Parse, annotate.AnnotateWithOptions and compile.Compile to the
// vanilla and the annotated-with-shadow-writes binary, once with the
// prototype annotator and once with the lockset analysis and every
// optimizer pass. An item and a job are one (source, annotator
// configuration) build. The front end does all the work here, and under
// 0.1% of it on the other workloads.
type build struct {
	sources  []source
	failures []string
}

type source struct {
	name string
	text string
	opts [2]annotate.Options // prototype, lockset
}

// buildCorpus is the number of generated programs beside the 6 bench-suite
// applications and the 11 bug fixtures.
const buildCorpus = 200

func (b *build) setup(rc *runCtx) error {
	for _, spec := range workloads.BenchSuite(1) {
		var roots []string
		for _, s := range spec.Starts {
			roots = append(roots, s.Fn)
		}
		b.add(spec.Name, spec.Source, roots)
	}
	for _, bug := range bugs.Corpus() {
		b.add(bug.App+"/"+bug.ID, bug.ExploreSource, nil)
	}
	n := buildCorpus
	if rc.quick {
		n = 5
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
		b.add(p.Name, p.Source, nil)
	}
	// Warm-up: build every source once with the prototype annotator. This
	// checks every input builds before anything is timed and gives the
	// front-end counts.
	for i, s := range b.sources {
		ap, bins, err := frontEnd(rc, i, s.text, s.opts[0], vanillaBin, shadowBin)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if err := noteBuild(rc, i, ap, bins[1]); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

func (b *build) add(name, text string, roots []string) {
	lock := lockset
	lock.Roots = roots
	b.sources = append(b.sources, source{name: name, text: text, opts: [2]annotate.Options{{Roots: roots}, lock}})
}

func (b *build) pass(rc *runCtx) (int, []float64, error) {
	jobs := make([]float64, 0, 2*len(b.sources))
	for i, s := range b.sources {
		for _, opts := range s.opts {
			sp := rc.begin("bench.item", i)
			t0 := time.Now()
			_, _, err := frontEnd(rc, i, s.text, opts, vanillaBin, shadowBin)
			jobs = append(jobs, time.Since(t0).Seconds())
			rc.end(sp)
			if err != nil {
				b.failures = append(b.failures, fmt.Sprintf("%s [%s]: %v", s.name, opts.Key(), err))
			}
		}
	}
	return len(jobs), jobs, nil
}

// check reports the builds that returned an error or a binary whose
// footprint table does not cover its code (frontEnd refuses both).
func (b *build) check(rc *runCtx) (int, error) {
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "build: %s\n", f)
	}
	return len(b.failures), nil
}
