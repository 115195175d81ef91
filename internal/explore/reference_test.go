package explore

import (
	"fmt"
	"math/rand"

	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

// The step reference: what the equivalence gates hold the engine to. Each
// schedule runs on a freshly built machine through core.Run, pinned to the
// reference interpreter (DispatchStep), with the schedule's policy injected
// through the run configuration — no session reuse, no snapshots, no fast
// tier, and every DFS prefix re-executed from the start.

// stepReference runs one schedule from the initial state and classifies it
// against the campaign's serial snapshot.
func (c *campaign) stepReference(mode Mode, policy vm.SchedulePolicy, quantum uint64, seed int64) (Run, error) {
	costs := vm.DefaultCosts()
	costs.Quantum = quantum
	decisions := 0
	counting := vm.PolicyFunc(func(sp vm.SchedPoint) int {
		decisions++
		return policy.Pick(sp)
	})
	res, err := core.Run(c.prog, core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		Vanilla:        mode == Vanilla,
		NumWatchpoints: c.opts.Watchpoints,
		Cores:          c.opts.Cores,
		Seed:           seed,
		MaxTicks:       c.opts.MaxTicks,
		TimeoutTicks:   c.opts.TimeoutTicks,
		Costs:          costs,
		Policy:         counting,
		SnapshotVars:   c.subject.SnapshotVars,
		Dispatch:       vm.DispatchStep,
	})
	return c.classify(mode, res, decisions, quantum, seed, err)
}

// referenceExplore enumerates the same schedules as the engine — random
// seeds Seed+k, or the DFS frontier in the same waves and LIFO order — but
// runs each one with stepReference. Stats stays nil.
func (c *campaign) referenceExplore(mode Mode) (*Report, error) {
	rep := &Report{
		Subject:   c.subject.Name,
		Mode:      mode,
		Strategy:  c.opts.Strategy,
		Seed:      c.opts.Seed,
		Schedules: c.opts.Schedules,
		Serial:    c.serial,
	}
	if c.opts.Strategy == Random {
		for k := 0; k < c.opts.Schedules; k++ {
			seed := c.opts.Seed + int64(k)
			r, err := c.stepReference(mode, randomPolicy{rng: rand.New(rand.NewSource(seed))}, c.randomQuantum(seed), seed)
			if err != nil {
				return nil, err
			}
			r.Index = k
			rep.Runs = append(rep.Runs, r)
		}
	} else {
		rep.Bound = c.opts.Bound
		stack := [][]int{{}}
		for len(stack) > 0 && len(rep.Runs) < c.opts.Schedules {
			n := min(dfsWave, len(stack), c.opts.Schedules-len(rep.Runs))
			wave := make([][]int, n)
			for i := range wave {
				wave[i] = stack[len(stack)-1-i]
			}
			stack = stack[:len(stack)-n]
			for _, prefix := range wave {
				fp := &framePolicy{prefix: prefix, horizon: c.opts.Horizon, branching: map[int]int{}}
				r, err := c.stepReference(mode, fp, c.dfsQuantum(), c.opts.Seed)
				if err != nil {
					return nil, err
				}
				r.Index, r.Prefix = len(rep.Runs), prefix
				rep.Runs = append(rep.Runs, r)
				if deviations(prefix) >= c.opts.Bound {
					continue
				}
				var children [][]int
				for d := len(prefix); d < min(r.Decisions, c.opts.Horizon); d++ {
					for choice := 1; choice < fp.branching[d]; choice++ {
						child := make([]int, d+1)
						copy(child, prefix)
						child[d] = choice
						children = append(children, child)
					}
				}
				for j := len(children) - 1; j >= 0; j-- {
					stack = append(stack, children[j])
				}
			}
		}
	}
	for _, r := range rep.Runs {
		if r.Diverged {
			rep.Divergences++
		}
	}
	return rep, nil
}

// referenceDifferential is Differential on the step reference. Its serial
// snapshot is re-derived on the reference interpreter, at one core like the
// campaign's, and must agree with it.
func referenceDifferential(subject *Subject, opts Options) (*DiffReport, error) {
	c, err := newCampaign(subject, opts)
	if err != nil {
		return nil, err
	}
	defer c.close()
	one := c.oneCore()
	for _, mode := range []Mode{Vanilla, Prevention} {
		for _, policy := range []vm.SchedulePolicy{fifoPolicy{}, lastSpawnedPolicy{}} {
			r, err := one.stepReference(mode, policy, serialQuantum, c.opts.Seed)
			if err != nil {
				return nil, err
			}
			if !snapshotsEqual(r.Snapshot, c.serial) {
				return nil, fmt.Errorf("%s [%s]: step-reference serial snapshot %v != engine's %v",
					subject.Name, mode, r.Snapshot, c.serial)
			}
		}
	}
	d := &DiffReport{Subject: subject.Name, Serial: c.serial}
	if d.Vanilla, err = c.referenceExplore(Vanilla); err != nil {
		return nil, err
	}
	if d.Prevention, err = c.referenceExplore(Prevention); err != nil {
		return nil, err
	}
	return d, nil
}
