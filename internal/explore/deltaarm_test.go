package explore

import (
	"math/rand"
	"testing"

	"kivati/internal/bugs"
)

// Watchpoint adoption differential gates: a core skips the copy of the
// canonical register file when its mutation count is current (hw.Adopt),
// and the fast dispatch tier decides blocks from the armed summary, so any
// divergence between the step-pinned interpreter and the fast tier would
// show up as a schedule that plays out differently. The gate runs every corpus
// bug under both modes for several seeds and requires zero mismatches in
// the observable outcome, then closes the loop by recording the fast run's
// decision trace and replaying it (Recorder → Replayer), which must
// reproduce the snapshot exactly.

func TestDeltaArmDifferentialCorpus(t *testing.T) {
	corpus := bugs.Corpus()
	if testing.Short() {
		corpus = corpus[:4]
	}
	seeds := []int64{1, 2, 3}
	for _, b := range corpus {
		b := b
		t.Run(b.App+"_"+b.ID, func(t *testing.T) {
			t.Parallel()
			s, err := BugSubject(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				opts := Options{Strategy: Random, Schedules: 1, Seed: seed, Parallelism: 1}
				c, err := newCampaign(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []Mode{Vanilla, Prevention} {
					q := c.randomQuantum(seed)
					// Step reference: the legacy stepper, one instruction at
					// a time.
					stepRun, err := c.stepReference(mode, randomPolicy{rng: rand.New(rand.NewSource(seed))}, q, seed)
					if err != nil {
						t.Fatal(err)
					}
					// Fast tier on a pooled session: superstep windows,
					// same-pick continuation and adoption all active.
					p := c.pool(mode)
					sess, err := p.get()
					if err != nil {
						t.Fatal(err)
					}
					fastRun, err := c.sessionRun(sess, mode, randomPolicy{rng: rand.New(rand.NewSource(seed))}, q, seed)
					p.put(sess)
					if err != nil {
						t.Fatal(err)
					}
					if !snapshotsEqual(stepRun.Snapshot, fastRun.Snapshot) ||
						stepRun.Decisions != fastRun.Decisions ||
						stepRun.Ticks != fastRun.Ticks ||
						stepRun.Diverged != fastRun.Diverged ||
						stepRun.Violations != fastRun.Violations ||
						stepRun.Prevented != fastRun.Prevented {
						t.Errorf("seed %d [%s]: step vs fast mismatch:\nstep: snap=%v dec=%d ticks=%d div=%v viol=%d prev=%d\nfast: snap=%v dec=%d ticks=%d div=%v viol=%d prev=%d",
							seed, mode,
							stepRun.Snapshot, stepRun.Decisions, stepRun.Ticks, stepRun.Diverged, stepRun.Violations, stepRun.Prevented,
							fastRun.Snapshot, fastRun.Decisions, fastRun.Ticks, fastRun.Diverged, fastRun.Violations, fastRun.Prevented)
					}
					// Recorder → Replayer: the fast run's decision trace must
					// reproduce its snapshot with zero replay mismatches.
					tr, err := c.recordTrace(mode, fastRun)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Replay(tr)
					if err != nil {
						t.Fatal(err)
					}
					if res.Mismatches != 0 || !res.Verdict {
						t.Errorf("seed %d [%s]: replay of fast-run trace: mismatches=%d verdict=%v",
							seed, mode, res.Mismatches, res.Verdict)
					}
				}
				c.close()
			}
		})
	}
}
