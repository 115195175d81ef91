package explore

import (
	"fmt"

	"kivati/internal/vm"
)

// The differential oracle: the serial reference and the vanilla-vs-
// prevention comparison.
//
// The serial reference is a non-preemptive single-pass execution — the
// scheduling quantum is set beyond the tick cap, so every thread runs to
// its next blocking point uninterrupted and each fixture's step bodies are
// atomic. It is a property of the program, run at one core whatever the
// campaign's core count. Fixtures are written so that *every* serial thread
// order agrees on the snapshot observables; the oracle verifies this by
// executing two opposite serial orders (FIFO and highest-thread-first) in
// both modes and refusing the subject if any of the four disagree. That
// check is also a standing audit that annotation + prevention preserve
// serial semantics.

// serialQuantum disables timer preemption for reference runs.
const serialQuantum = 1 << 40

// fifoPolicy is serial order A: always the queue head.
type fifoPolicy struct{}

func (fifoPolicy) Pick(sp vm.SchedPoint) int { return 0 }

// lastSpawnedPolicy is serial order B: the highest thread ID, reversing
// the order in which the workers run.
type lastSpawnedPolicy struct{}

func (lastSpawnedPolicy) Pick(sp vm.SchedPoint) int {
	best := 0
	for i, id := range sp.Runnable {
		if id > sp.Runnable[best] {
			best = i
		}
	}
	return best
}

// oneCore returns c, or when c runs on more cores, a campaign for the same
// program on one core with its own session pools, which the caller closes.
func (c *campaign) oneCore() *campaign {
	if c.opts.Cores == 1 {
		return c
	}
	one := &campaign{subject: c.subject, prog: c.prog, opts: c.opts, pools: map[Mode]*sessionPool{}}
	one.opts.Cores = 1
	return one
}

// serialReference establishes the campaign's serial snapshot at one core.
func (c *campaign) serialReference() error {
	one := c.oneCore()
	if one != c {
		defer one.close()
	}
	type ref struct {
		mode   Mode
		policy vm.SchedulePolicy
		name   string
	}
	refs := []ref{
		{Vanilla, fifoPolicy{}, "vanilla/fifo"},
		{Vanilla, lastSpawnedPolicy{}, "vanilla/reversed"},
		{Prevention, fifoPolicy{}, "prevention/fifo"},
		{Prevention, lastSpawnedPolicy{}, "prevention/reversed"},
	}
	var base map[string]int64
	for _, r := range refs {
		run, err := one.runFresh(r.mode, r.policy, serialQuantum, c.opts.Seed)
		if err != nil {
			return fmt.Errorf("explore: %s: serial reference %s: %w", c.subject.Name, r.name, err)
		}
		if base == nil {
			base = run.Snapshot
			continue
		}
		if !snapshotsEqual(run.Snapshot, base) {
			return fmt.Errorf("explore: %s: serial executions disagree: %s got %v, want %v",
				c.subject.Name, r.name, run.Snapshot, base)
		}
	}
	c.serial = base
	return nil
}

// DiffReport compares vanilla and prevention over the same exploration
// options. The two modes compile to different binaries, so a given seed or
// prefix yields different (but individually deterministic and replayable)
// decision sequences in each mode; what is compared is the statistical
// claim over the schedule set, not schedule-by-schedule pairs.
type DiffReport struct {
	Subject string           `json:"subject"`
	Serial  map[string]int64 `json:"serial"`
	Vanilla *Report          `json:"vanilla"`
	// Prevention must report zero divergences: a prevention-mode snapshot
	// that differs from the serial result is an engine bug.
	Prevention *Report `json:"prevention"`
}

// VanillaDivergences is the count of explored schedules where the
// unprotected program corrupted the observables — evidence the bug is
// real and schedule-dependent.
func (d *DiffReport) VanillaDivergences() int { return d.Vanilla.Divergences }

// PreventionDivergences must be zero.
func (d *DiffReport) PreventionDivergences() int { return d.Prevention.Divergences }

// Differential explores the subject in both modes over the same options
// and packages the comparison.
func Differential(subject *Subject, opts Options) (*DiffReport, error) {
	c, err := newCampaign(subject, opts)
	if err != nil {
		return nil, err
	}
	defer c.close()
	van, err := c.explore(Vanilla)
	if err != nil {
		return nil, err
	}
	prev, err := c.explore(Prevention)
	if err != nil {
		return nil, err
	}
	return &DiffReport{
		Subject:    subject.Name,
		Serial:     c.serial,
		Vanilla:    van,
		Prevention: prev,
	}, nil
}
