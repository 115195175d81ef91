package core

import (
	"fmt"
	"maps"

	"kivati/internal/compile"
	"kivati/internal/kernel"
	"kivati/internal/trace"
	"kivati/internal/vm"
)

// Session is a reusable execution context for running many schedules of
// one (program, configuration) pair: the kernel and machine are built
// once, an initial copy-on-write snapshot is captured after thread
// creation, and each subsequent run restores that snapshot instead of
// re-allocating and re-zeroing an 8 MB machine. Profiling the explorer
// showed ~60% of per-schedule time was vm.New's memory zeroing; a restore
// touches only the pages the previous run dirtied.
//
// A Session is not safe for concurrent use — callers that fan out give
// each worker its own Session. Snapshots, however, are portable between
// Sessions of the same program and configuration (see vm.Snapshot).
//
// Restrictions relative to core.Run, which builds and finishes its single
// run through the same code: no request generator (Requests consumes RNG
// draws at construction), no whitelist reload timer (closure events are
// unsnapshottable), no violation callback, and the per-run Policy is
// supplied to RunSchedule rather than via the config.
//
// Close hands the machine's memory image back for the next machine to
// reuse, clearing only the pages the session wrote; a session nobody
// closes is simply garbage collected. Snapshots outlive their session.
type Session struct {
	cfg  RunConfig
	bin  *compile.Binary
	m    *vm.Machine
	init *vm.Snapshot
}

// NewSession builds the execution context and captures the initial
// snapshot. cfg.Policy must be nil (policies are per-run); cfg.Dispatch
// selects the tier every run of this session uses.
func NewSession(p *Program, cfg RunConfig) (*Session, error) {
	if cfg.Policy != nil {
		return nil, fmt.Errorf("core: Session policies are per-run; RunConfig.Policy must be nil")
	}
	if cfg.Requests != nil {
		return nil, fmt.Errorf("core: Session does not support request generators")
	}
	if cfg.Whitelist != nil && cfg.Whitelist.Source != nil {
		return nil, fmt.Errorf("core: Session does not support whitelist reloading")
	}
	if cfg.OnViolation != nil {
		return nil, fmt.Errorf("core: Session does not support violation callbacks")
	}
	s, err := newSession(p, cfg)
	if err != nil {
		return nil, err
	}
	if s.init, err = s.m.Snapshot(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// newSession builds the kernel and machine for p under cfg and starts the
// initial threads, without capturing a snapshot: the one construction
// path behind Run and NewSession.
func newSession(p *Program, cfg RunConfig) (*Session, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	bin, err := p.Binary(cfg.compileOptions())
	if err != nil {
		return nil, err
	}
	kcfg := kernel.Config{
		Mode:           cfg.Mode,
		Opt:            cfg.Opt,
		NumWatchpoints: cfg.NumWatchpoints,
		TimeoutTicks:   cfg.TimeoutTicks,
		PauseTicks:     cfg.PauseTicks,
		PauseEvery:     cfg.PauseEvery,
		TrapBefore:     cfg.TrapBefore,
	}
	if bin.Opts.ShadowWrites && cfg.Opt.UseUserLib() {
		kcfg.ShadowDelta = compile.ShadowDelta
	}
	k := kernel.New(kcfg, cfg.Whitelist, &trace.Log{OnViolation: cfg.OnViolation}, nil)
	m, err := vm.New(bin, k, vm.Config{
		Cores:    cfg.Cores,
		Seed:     cfg.Seed,
		MaxTicks: cfg.MaxTicks,
		Costs:    cfg.Costs,
		Requests: cfg.Requests,
		Policy:   cfg.Policy,
		Dispatch: cfg.Dispatch,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range cfg.Starts {
		if _, err := m.Start(s.Fn, s.Arg); err != nil {
			m.Release()
			return nil, err
		}
	}
	return &Session{cfg: cfg, bin: bin, m: m}, nil
}

// Machine exposes the session's machine (snapshots, memory hashing,
// segment access). State is only meaningful between runs.
func (s *Session) Machine() *vm.Machine { return s.m }

// Close releases the session's machine image (see vm.Machine.Release).
// The session must not run again; closing it twice is a no-op.
func (s *Session) Close() { s.m.Release() }

// finish extracts one run's results: the only result-extraction code in
// the package, shared by Run and every Session run.
func (s *Session) finish(res *vm.Result) (*vm.Result, error) {
	// Results alias machine and kernel state that the next restore
	// rewrites in place; copy out everything a caller might hold across
	// runs.
	stats := *res.Stats
	stats.MissedByAR = maps.Clone(stats.MissedByAR)
	res.Stats = &stats
	res.Violations = append([]trace.Violation(nil), res.Violations...)
	res.Output = append([]int64(nil), res.Output...)
	res.Latencies = append([]uint64(nil), res.Latencies...)
	res.Faults = append([]string(nil), res.Faults...)
	if s.cfg.HashMemory {
		res.MemHash = s.m.MemHash()
	}
	if len(s.cfg.SnapshotVars) > 0 {
		res.Snapshot = make(map[string]int64, len(s.cfg.SnapshotVars))
		for _, name := range s.cfg.SnapshotVars {
			addr, ok := s.bin.Globals[name]
			if !ok {
				return res, fmt.Errorf("core: no global %q to snapshot", name)
			}
			res.Snapshot[name] = int64(s.m.Load(addr, 8))
		}
	}
	if len(res.Faults) > 0 {
		return res, fmt.Errorf("core: program faulted: %s", res.Faults[0])
	}
	return res, nil
}

// RunSchedule executes one schedule from the initial state: restore the
// initial snapshot, reseed, set the quantum, install the policy, run.
func (s *Session) RunSchedule(policy vm.SchedulePolicy, quantum uint64, seed int64) (*vm.Result, error) {
	s.m.Restore(s.init)
	s.m.Reseed(seed)
	s.m.SetQuantum(quantum)
	s.m.SetPolicy(policy)
	return s.finish(s.m.Run())
}

// RunFrom resumes execution from a mid-run snapshot under a new policy:
// the branch-point resume that lets the DFS skip re-executing deviation
// prefixes. Quantum and RNG state are part of the snapshot.
func (s *Session) RunFrom(snap *vm.Snapshot, policy vm.SchedulePolicy) (*vm.Result, error) {
	s.m.Restore(snap)
	s.m.SetPolicy(policy)
	return s.finish(s.m.Run())
}
