// Package explore is the schedule-exploration subsystem: it drives the VM
// through the injectable scheduler hook (vm.SchedulePolicy) to enumerate
// or sample many distinct thread interleavings of one program, and — via
// the differential oracle in oracle.go — checks Kivati's central claim on
// each of them: a vanilla run *can* corrupt shared state, a prevention-
// mode run never corrupts the observables the engine guarantees.
//
// Three strategies are provided:
//
//   - Random: a seeded random walk — schedule k picks uniformly among the
//     runnable threads at every decision point, with the preemption
//     quantum varied per seed so decision points land at different
//     instruction phases.
//   - DFS: CHESS-style preemption-bounded depth-first search over the
//     tree of scheduling decisions. A schedule is a prefix of non-default
//     choices; children deviate at one more decision point, and prefixes
//     with more than Bound deviations are pruned.
//   - Replay (trace.go): re-execute one recorded decision trace exactly.
//
// Every run is deterministic given (strategy, seed/prefix, quantum), and
// exploration output is byte-identical at any Parallelism because results
// are slotted by schedule index and DFS runs in fixed-size waves.
package explore

import (
	"fmt"
	"math/rand"
	"sync"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/core"
	"kivati/internal/vm"
)

// Strategy selects how schedules are generated.
type Strategy string

const (
	Random Strategy = "random"
	DFS    Strategy = "dfs"
)

// Mode is one side of the differential comparison.
type Mode string

const (
	// Vanilla runs the unannotated binary: no atomic regions, no engine.
	Vanilla Mode = "vanilla"
	// Prevention runs the annotated binary under the prevention engine.
	Prevention Mode = "prevention"
)

// Subject is one program under exploration.
type Subject struct {
	Name         string
	Source       string
	SnapshotVars []string
	// Gen carries a generated subject's provenance (nil for the
	// hand-written corpus); see GenSubject.
	Gen *GenInfo
}

// BugSubject wraps a corpus bug's exploration fixture.
func BugSubject(b *bugs.Bug) (*Subject, error) {
	if b.ExploreSource == "" {
		return nil, fmt.Errorf("explore: bug %s/%s has no exploration fixture", b.App, b.ID)
	}
	return &Subject{
		Name:         b.App + "/" + b.ID,
		Source:       b.ExploreSource,
		SnapshotVars: b.SnapshotVars,
	}, nil
}

// Options configure an exploration campaign.
type Options struct {
	Strategy Strategy
	Engine   Engine // "" or EngineSnapshot, the only engine (see engine.go)
	// DPOR enables dynamic partial-order reduction over the DFS: children
	// that merely commute provably independent transitions are pruned.
	// Requires the dfs strategy and Cores == 1.
	DPOR      bool
	Schedules int   // schedule budget (default 100)
	Seed      int64 // base seed; random schedule k runs with Seed+k
	Bound     int   // dfs: max deviations from the default choice (default 3)
	Horizon   int   // dfs: only the first Horizon decisions spawn children (default 64)
	Cores     int   // default 1 — single-core interleavings are the bug search space
	// Quantum is the preemption quantum in ticks. 0 uses the strategy
	// default: DFS runs at a fixed 40 so the decision tree is well
	// defined, the random walk varies it per seed over [17,45] so
	// preemptions land at different instruction phases.
	Quantum      uint64
	MaxTicks     uint64 // per-run cap (default 4M)
	TimeoutTicks uint64 // kernel suspension timeout (default 10k)
	// Watchpoints defaults to 16, not the hardware's 4: the LSV includes
	// value-dependent locals, whose ARs compete with the shared variable's
	// for watchpoints, and an AR that loses the race (RecordMissed) runs
	// unmonitored — a capacity effect measured by Tables 8 and 9, not the
	// serializability property this oracle checks. The default provisions
	// enough watchpoints that every AR of the bounded fixtures is
	// monitored; set it to 4 to observe the pressure effects instead.
	Watchpoints int
	Parallelism int // worker pool size (0 = GOMAXPROCS)
	// Annotate selects the annotator configuration the subject is built
	// with — the oracle's lever for checking the lockset-based annotation
	// optimizer: enabling its passes here must leave prevention-mode
	// divergences at zero.
	Annotate annotate.Options
}

// withDefaults fills in the defaults and rejects option combinations no
// campaign can run.
func (o Options) withDefaults() (Options, error) {
	if o.Strategy == "" {
		o.Strategy = Random
	}
	if o.Strategy != Random && o.Strategy != DFS {
		return o, fmt.Errorf("unknown strategy %q", o.Strategy)
	}
	if o.Engine == "" {
		o.Engine = EngineSnapshot
	}
	if o.Engine != EngineSnapshot {
		return o, fmt.Errorf("unknown engine %q: %q is the only engine", o.Engine, EngineSnapshot)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Schedules", o.Schedules}, {"Bound", o.Bound}, {"Horizon", o.Horizon}} {
		if f.v < 0 {
			return o, fmt.Errorf("%s %d is negative", f.name, f.v)
		}
	}
	if o.Schedules == 0 {
		o.Schedules = 100
	}
	if o.Bound == 0 {
		o.Bound = 3
	}
	if o.Horizon == 0 {
		o.Horizon = 64
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.MaxTicks == 0 {
		o.MaxTicks = 4_000_000
	}
	if o.TimeoutTicks == 0 {
		o.TimeoutTicks = 10_000
	}
	if o.Watchpoints == 0 {
		o.Watchpoints = 16
	}
	if o.DPOR {
		switch {
		case o.Strategy != DFS:
			return o, fmt.Errorf("DPOR requires the dfs strategy")
		case o.Cores != 1:
			return o, fmt.Errorf("DPOR requires Cores == 1")
		}
	}
	return o, nil
}

// quantumFor is the random strategy's per-seed quantum in [17,45]: a prime
// stride decorrelates it from the seed's decision stream.
func quantumFor(seed int64) uint64 {
	v := seed * 7919
	if v < 0 {
		v = -v
	}
	return 17 + uint64(v%29)
}

// Run is one explored schedule's outcome.
type Run struct {
	Index     int    `json:"index"`
	Seed      int64  `json:"seed"`
	Quantum   uint64 `json:"quantum"`
	Prefix    []int  `json:"prefix,omitempty"` // dfs deviation prefix (choice indices)
	Decisions int    `json:"decisions"`        // decision points consumed
	// Snapshot is the final value of each subject observable.
	Snapshot   map[string]int64 `json:"snapshot"`
	Diverged   bool             `json:"diverged"` // snapshot != serial snapshot
	Violations int              `json:"violations"`
	Prevented  int              `json:"prevented"`
	Ticks      uint64           `json:"ticks"`
	Reason     string           `json:"reason"`
	// Decision-point cost accounting (see vm.Result): how watchpoint
	// adoptions at kernel crossings split between those that found the
	// core already current and those that copied the canonical register
	// file. SamePickContinues always reads 0, as vm.Telemetry's does; it
	// stays because the benchmark reads it.
	SamePickContinues uint64 `json:"same_pick_continues,omitempty"`
	DeltaArms         uint64 `json:"delta_arms,omitempty"`
	FullArms          uint64 `json:"full_arms,omitempty"`
}

// Report is the outcome of exploring one subject in one mode.
type Report struct {
	Subject     string           `json:"subject"`
	Mode        Mode             `json:"mode"`
	Strategy    Strategy         `json:"strategy"`
	Seed        int64            `json:"seed"`
	Bound       int              `json:"bound,omitempty"`
	Schedules   int              `json:"schedules"`
	Serial      map[string]int64 `json:"serial"`
	Runs        []Run            `json:"runs"`
	Divergences int              `json:"divergences"`
	// Stats reports the engine's work: snapshots, restores, resumes and
	// DPOR prunes.
	Stats *EngineStats `json:"engine_stats"`
}

// campaign carries the per-subject state shared by every run.
type campaign struct {
	subject *Subject
	prog    *core.Program
	opts    Options
	serial  map[string]int64

	mu    sync.Mutex
	pools map[Mode]*sessionPool
}

func newCampaign(subject *Subject, opts Options) (*campaign, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("explore: %s: %w", subject.Name, err)
	}
	prog, err := core.BuildWithOptions(subject.Source, opts.Annotate)
	if err != nil {
		return nil, fmt.Errorf("explore: %s: %w", subject.Name, err)
	}
	c := &campaign{subject: subject, prog: prog, opts: opts, pools: map[Mode]*sessionPool{}}
	if err := c.serialReference(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// classify turns one schedule's raw result into a Run verdict. An
// incomplete run (deadlock, tick cap) is an error: every fixture must
// terminate under every explored schedule.
func (c *campaign) classify(mode Mode, res *vm.Result, decisions int, quantum uint64, seed int64, err error) (Run, error) {
	if err != nil {
		return Run{}, fmt.Errorf("explore: %s [%s]: %w", c.subject.Name, mode, err)
	}
	if res.Reason != "completed" {
		return Run{}, fmt.Errorf("explore: %s [%s]: run did not complete: %s (ticks=%d)",
			c.subject.Name, mode, res.Reason, res.Ticks)
	}
	r := Run{
		Seed:              seed,
		Quantum:           quantum,
		Decisions:         decisions,
		Snapshot:          res.Snapshot,
		Diverged:          !snapshotsEqual(res.Snapshot, c.serial),
		Ticks:             res.Ticks,
		Reason:            res.Reason,
		SamePickContinues: res.SamePickContinues,
		DeltaArms:         res.DeltaArms,
		FullArms:          res.FullArms,
	}
	for _, v := range res.Violations {
		r.Violations++
		if v.Prevented {
			r.Prevented++
		}
	}
	return r, nil
}

func snapshotsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// randomPolicy picks uniformly among the runnable threads.
type randomPolicy struct{ rng *rand.Rand }

func (p randomPolicy) Pick(sp vm.SchedPoint) int { return p.rng.Intn(len(sp.Runnable)) }

// randomQuantum resolves the quantum for random-walk schedule seed.
func (c *campaign) randomQuantum(seed int64) uint64 {
	if c.opts.Quantum != 0 {
		return c.opts.Quantum
	}
	return quantumFor(seed)
}

// dfsQuantum resolves the (fixed) DFS quantum.
func (c *campaign) dfsQuantum() uint64 {
	if c.opts.Quantum != 0 {
		return c.opts.Quantum
	}
	return 40
}

// Explore runs one exploration campaign over the subject in one mode.
func Explore(subject *Subject, mode Mode, opts Options) (*Report, error) {
	c, err := newCampaign(subject, opts)
	if err != nil {
		return nil, err
	}
	defer c.close()
	return c.explore(mode)
}

func (c *campaign) explore(mode Mode) (*Report, error) {
	rep := &Report{
		Subject:   c.subject.Name,
		Mode:      mode,
		Strategy:  c.opts.Strategy,
		Seed:      c.opts.Seed,
		Schedules: c.opts.Schedules,
		Serial:    c.serial,
		Stats:     &EngineStats{},
	}
	var err error
	if c.opts.Strategy == DFS {
		rep.Bound = c.opts.Bound
		rep.Runs, err = c.dfs(mode, rep.Stats)
	} else {
		rep.Runs, err = c.randomWalk(mode, rep.Stats)
	}
	if err != nil {
		return nil, err
	}
	for _, r := range rep.Runs {
		if r.Diverged {
			rep.Divergences++
		}
	}
	return rep, nil
}
