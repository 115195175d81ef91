package explore

import (
	"fmt"
	"math/rand"
	"sync"

	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/pool"
	"kivati/internal/vm"
)

// The execution engine.
//
// Every schedule runs on a pooled, reusable core.Session rather than a
// freshly built machine:
//
//   - Each worker keeps one session; a schedule starts by restoring a
//     copy-on-write snapshot of the initial state (a few page copies)
//     instead of constructing and zeroing an 8 MB machine.
//   - Sessions run under vm.DispatchFast — Fast-mode recording. The tiered
//     dispatcher consults the injected policy at exactly the ticks the
//     step interpreter would (superstep windows are refused whenever a
//     free core could schedule), so verdicts are identical; the
//     record-under-Fast/replay-under-Step differential gate in the root
//     test suite pins that equivalence down.
//   - The DFS captures a snapshot inside Policy.Pick at the first decision
//     past the frame's prefix and then every snapStride decisions, and each
//     child resumes from the deepest capture at or below its branch point,
//     replaying the short gap through its prefix, rather than re-executing
//     the shared prefix. (Capturing at every decision was measured to cost
//     more than it saved: a deep-horizon run would take hundreds of
//     snapshots and use a handful.) Snapshots are machine-portable, so any
//     worker can resume any frame.
//
// Mid-run resume re-enters vm.Run at the loop top and re-executes the
// in-flight Pick. A snapshot carries every core's register file with its
// mutation count plus the coresBehind flag, so an idle core adopts the
// canonical watchpoint state at the same point as in the uninterrupted
// run, at any core count. TestSessionSnapshotRestoreGenerated holds
// resumed runs to uninterrupted ones on 1-3 cores, and the multi-core DFS
// cases of TestEngineEquivalence hold whole campaigns to fresh
// step-interpreter runs.

// rngPool recycles policy rng sources across schedules: each schedule's
// stream is fully determined by Seed, so a re-seeded pooled source is
// indistinguishable from a fresh one.
var rngPool = sync.Pool{New: func() interface{} { return rand.New(rand.NewSource(0)) }}

// Engine names the execution machinery behind a campaign. EngineSnapshot
// is the only one; the option survives so callers may name it.
type Engine string

// EngineSnapshot is the session-reuse engine described above.
const EngineSnapshot Engine = "snapshot"

// EngineStats reports the engine's work for one explored mode.
type EngineStats struct {
	// Snapshots counts mid-run branch-point snapshots captured.
	Snapshots int `json:"snapshots"`
	// Restores counts snapshot restores (every schedule starts with one).
	Restores int `json:"restores"`
	// Resumed counts schedules resumed from a mid-run branch-point
	// snapshot rather than replayed from the initial state.
	Resumed int `json:"resumed"`
	// Pruned counts DFS children skipped by DPOR as swap-redundant.
	Pruned int `json:"pruned"`
}

// sessionPool hands out per-worker Sessions for one mode, reusing them
// across waves and strategies for the life of the campaign.
type sessionPool struct {
	c    *campaign
	mode Mode
	mu   sync.Mutex
	free []*core.Session
}

func (c *campaign) pool(mode Mode) *sessionPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[mode]
	if !ok {
		p = &sessionPool{c: c, mode: mode}
		c.pools[mode] = p
	}
	return p
}

// close closes every pooled session, handing their 8 MB machine images
// back for the next campaign's sessions to reuse. Campaign entry points
// defer it; every session is back in its pool once a campaign returns.
func (c *campaign) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pools {
		p.mu.Lock()
		for _, s := range p.free {
			s.Close()
		}
		p.free = nil
		p.mu.Unlock()
	}
	c.pools = map[Mode]*sessionPool{}
}

func (p *sessionPool) get() (*core.Session, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	return p.c.newSession(p.mode)
}

func (p *sessionPool) put(s *core.Session) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// newSession builds one session of the campaign's kernel and oracle
// configuration. Policy and quantum are per-run.
func (c *campaign) newSession(mode Mode) (*core.Session, error) {
	s, err := core.NewSession(c.prog, core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		Vanilla:        mode == Vanilla,
		NumWatchpoints: c.opts.Watchpoints,
		Cores:          c.opts.Cores,
		Seed:           c.opts.Seed,
		MaxTicks:       c.opts.MaxTicks,
		TimeoutTicks:   c.opts.TimeoutTicks,
		Costs:          vm.DefaultCosts(),
		SnapshotVars:   c.subject.SnapshotVars,
		Dispatch:       vm.DispatchFast,
	})
	if err != nil {
		return nil, fmt.Errorf("explore: %s [%s]: %w", c.subject.Name, mode, err)
	}
	if c.opts.DPOR {
		// Segments past the horizon never feed a pruning decision; the
		// slack tolerates the horizon-adjacent lookahead of the d' search.
		s.Machine().SetSegmentLimit(c.opts.Horizon + 8)
	}
	return s, nil
}

// runJobs runs session jobs through pool.Run: each job leases a session
// from the mode's pool and puts it back when done.
func runJobs[T any](p *sessionPool, workers int, jobs []func(*core.Session) (T, error)) ([]T, error) {
	leased := make([]func() (T, error), len(jobs))
	for i, job := range jobs {
		leased[i] = func() (T, error) {
			s, err := p.get()
			if err != nil {
				var zero T
				return zero, err
			}
			defer p.put(s)
			return job(s)
		}
	}
	return pool.Run(workers, leased)
}

// runFresh executes one full schedule from the initial state on a session
// leased from the mode's pool: the serial references, trace recording and
// trace replay.
func (c *campaign) runFresh(mode Mode, policy vm.SchedulePolicy, quantum uint64, seed int64) (Run, error) {
	p := c.pool(mode)
	s, err := p.get()
	if err != nil {
		return Run{}, err
	}
	defer p.put(s)
	return c.sessionRun(s, mode, policy, quantum, seed)
}

// sessionRun executes one full schedule from the initial state on a leased
// session. Decisions come from the machine's absolute decision counter.
func (c *campaign) sessionRun(s *core.Session, mode Mode, policy vm.SchedulePolicy, quantum uint64, seed int64) (Run, error) {
	res, err := s.RunSchedule(policy, quantum, seed)
	var dec int
	if err == nil {
		dec = int(s.Machine().SchedSeq())
	}
	return c.classify(mode, res, dec, quantum, seed, err)
}

// randomWalk fans the seeded random walks out across the pool: schedule k
// runs with seed Seed+k from the initial snapshot. Results are slotted by
// schedule index, so output is parallelism-independent.
func (c *campaign) randomWalk(mode Mode, stats *EngineStats) ([]Run, error) {
	p := c.pool(mode)
	jobs := make([]func(*core.Session) (Run, error), c.opts.Schedules)
	for k := 0; k < c.opts.Schedules; k++ {
		k := k
		seed := c.opts.Seed + int64(k)
		jobs[k] = func(s *core.Session) (Run, error) {
			// Re-seeding a pooled source yields the identical stream to a
			// fresh rand.NewSource(seed) without the per-schedule allocation.
			rng := rngPool.Get().(*rand.Rand)
			rng.Seed(seed)
			r, err := c.sessionRun(s, mode, randomPolicy{rng: rng}, c.randomQuantum(seed), seed)
			rngPool.Put(rng)
			r.Index = k
			return r, err
		}
	}
	runs, err := runJobs(p, pool.Workers(c.opts.Parallelism), jobs)
	if err != nil {
		return nil, err
	}
	stats.Restores += len(runs)
	return runs, nil
}

func deviations(prefix []int) int {
	d := 0
	for _, c := range prefix {
		if c != 0 {
			d++
		}
	}
	return d
}

// dfsWave is the fixed batch size of the DFS frontier: waves of this many
// prefixes run concurrently. It is a constant — not the worker count — so
// the set of explored schedules is identical at any parallelism.
const dfsWave = 8

// dfsFrame is one frontier entry of the DFS: the deviation prefix
// to run plus the parent's branch-point snapshot to resume from (nil for
// the root, which runs from the initial state).
type dfsFrame struct {
	prefix []int
	snap   *vm.Snapshot
}

// framePolicy drives one DFS schedule: decision d takes prefix[d]
// (clamped) while d < len(prefix), and the default choice 0 — FIFO
// round-robin — afterwards. Decision indexes are absolute (sp.Seq): a
// resumed run starts mid-stream at its branch point, so prefix lookups,
// branching records and snapshot capture all key on Seq rather than a
// local counter. With a zero horizon it records nothing and captures
// nothing, which is how a trace re-executes a DFS schedule.
type framePolicy struct {
	m       *vm.Machine
	prefix  []int
	horizon int
	stride  int  // capture spacing; see snapStride
	capture bool // this run may spawn children (deviations < bound)

	branching map[int]int          // decision -> branching factor, d < horizon
	runnable  map[int][]int        // decision -> runnable thread IDs (DPOR only)
	snaps     map[int]*vm.Snapshot // decision -> branch-point snapshot
	err       error                // first snapshot-capture failure
}

func (p *framePolicy) Pick(sp vm.SchedPoint) int {
	d := int(sp.Seq)
	if d < p.horizon {
		p.branching[d] = len(sp.Runnable)
		if d >= len(p.prefix) {
			if p.runnable != nil {
				p.runnable[d] = append([]int(nil), sp.Runnable...)
			}
			if p.capture && p.err == nil && (d == len(p.prefix) || d%p.stride == 0) {
				snap, err := p.m.Snapshot()
				if err != nil {
					p.err = err
				} else {
					p.snaps[d] = snap
				}
			}
		}
	}
	if d < len(p.prefix) {
		choice := p.prefix[d]
		if choice < 0 || choice >= len(sp.Runnable) {
			choice = 0
		}
		return choice
	}
	return 0
}

// dfs is the preemption-bounded depth-first search: the frontier is a LIFO
// stack of deviation prefixes, seeded with the empty prefix (pure
// round-robin) and run in fixed-size waves. After a prefix runs, every
// decision point it passed within the horizon spawns children that
// deviate there, pruned by the bound; each child resumes from its
// parent's branch-point snapshot, and (with DPOR) swap-redundant children
// are pruned before they are pushed.
func (c *campaign) dfs(mode Mode, stats *EngineStats) ([]Run, error) {
	quantum := c.dfsQuantum()
	dpor := c.opts.DPOR
	p := c.pool(mode)
	workers := pool.Workers(c.opts.Parallelism)
	stack := []dfsFrame{{prefix: []int{}}}
	var runs []Run
	for len(stack) > 0 && len(runs) < c.opts.Schedules {
		n := dfsWave
		if n > len(stack) {
			n = len(stack)
		}
		if rem := c.opts.Schedules - len(runs); n > rem {
			n = rem
		}
		// Pop the wave in LIFO order.
		wave := make([]dfsFrame, n)
		for i := 0; i < n; i++ {
			wave[i] = stack[len(stack)-1-i]
		}
		stack = stack[:len(stack)-n]

		type dfsResult struct {
			run       Run
			policy    *framePolicy
			segs      []vm.Segment
			decisions int
		}
		jobs := make([]func(*core.Session) (dfsResult, error), n)
		for i, fr := range wave {
			fr := fr
			jobs[i] = func(s *core.Session) (dfsResult, error) {
				fp := &framePolicy{
					m:         s.Machine(),
					prefix:    fr.prefix,
					horizon:   c.opts.Horizon,
					stride:    snapStride(c.opts.Horizon),
					capture:   deviations(fr.prefix) < c.opts.Bound,
					branching: map[int]int{},
					snaps:     map[int]*vm.Snapshot{},
				}
				if dpor {
					fp.runnable = map[int][]int{}
				}
				var res *vm.Result
				var err error
				if fr.snap == nil {
					res, err = s.RunSchedule(fp, quantum, c.opts.Seed)
				} else {
					res, err = s.RunFrom(fr.snap, fp)
				}
				var dec int
				if err == nil {
					dec = int(s.Machine().SchedSeq())
				}
				r, rerr := c.classify(mode, res, dec, quantum, c.opts.Seed, err)
				if rerr == nil {
					rerr = fp.err
				}
				if rerr != nil {
					return dfsResult{}, rerr
				}
				r.Prefix = fr.prefix
				out := dfsResult{run: r, policy: fp, decisions: dec}
				if dpor {
					out.segs = append([]vm.Segment(nil), s.Machine().Segments()...)
				}
				return out, nil
			}
		}
		results, err := runJobs(p, workers, jobs)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			res.run.Index = len(runs)
			runs = append(runs, res.run)
			stats.Restores++
			if wave[i].snap != nil {
				stats.Resumed++
			}
			stats.Snapshots += len(res.policy.snaps)
			// Children deviate at decision points past this prefix, within
			// the horizon. Push deepest-first so the LIFO explores the
			// shallowest deviation next.
			prefix := wave[i].prefix
			if deviations(prefix) >= c.opts.Bound {
				continue
			}
			limit := res.decisions
			if limit > c.opts.Horizon {
				limit = c.opts.Horizon
			}
			stride := snapStride(c.opts.Horizon)
			var children []dfsFrame
			for d := len(prefix); d < limit; d++ {
				// Deepest capture at or below d; the child replays the
				// (< stride)-decision gap through its prefix.
				d0 := d - d%stride
				if d0 < len(prefix) {
					d0 = len(prefix)
				}
				snap := res.policy.snaps[d0]
				for choice := 1; choice < res.policy.branching[d]; choice++ {
					if dpor && pruneChild(res.policy, res.segs, d, choice) {
						stats.Pruned++
						continue
					}
					child := make([]int, d+1)
					copy(child, prefix)
					child[d] = choice
					children = append(children, dfsFrame{prefix: child, snap: snap})
				}
			}
			for j := len(children) - 1; j >= 0; j-- {
				stack = append(stack, children[j])
			}
		}
	}
	return runs, nil
}

// snapStride spaces branch-point captures along a DFS run. A child
// deviating at d resumes from the deepest capture at or below d and
// replays the gap (< stride decisions) through its prefix, so widening the
// stride trades a bounded replay per resume for proportionally fewer
// captures per run — a run captures ~horizon/stride snapshots instead of
// one per decision, almost all of which would be discarded.
func snapStride(horizon int) int {
	if s := horizon / 16; s > 1 {
		return s
	}
	return 1
}

// pruneChild is the DPOR swap-redundancy check. The candidate child
// deviates at decision d by running thread u first. If the parent's own
// run reached u at a later decision d', and u's transition there is
// independent of every transition the parent executed between d and d',
// then the child's schedule commutes u backwards across independent
// transitions into a state the parent's subtree already covers — skip it.
//
// Segments are indexed so segs[i+1] is the transition executed after
// decision i and carries its thread. The check is approximate: moving u
// earlier can shift later quantum-timed decision points, so DPOR is
// opt-in and its soundness is enforced empirically by the corpus gate
// (TestDPORSoundnessOnCorpus).
func pruneChild(fp *framePolicy, segs []vm.Segment, d, choice int) bool {
	runnable := fp.runnable[d]
	if choice >= len(runnable) {
		return false
	}
	u := runnable[choice]
	for dp := d; dp+1 < len(segs); dp++ {
		sd := &segs[dp+1]
		if sd.Thread != u {
			continue
		}
		// First decision at which the parent ran u. Prune only if its
		// transition commutes with everything in between.
		for i := d; i < dp; i++ {
			if !segs[i+1].Independent(sd) {
				return false
			}
		}
		return true
	}
	return false
}
