package explore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/vm"
)

// Decision-trace record and replay.
//
// A Trace is a self-contained, replayable record of one explored schedule:
// the program source, the annotator configuration that built it, the full
// run configuration, the serial reference snapshot, and the chosen thread
// ID at every scheduler decision point.
// Replaying drives the VM with a vm.Replayer over those decisions; because
// the machine is fully deterministic given (binary, config, decisions),
// replay reproduces the run tick-for-tick — zero replay mismatches and a
// byte-identical snapshot. That is the reproducibility guarantee behind
// every oracle verdict: any divergent schedule can be re-examined from its
// trace file alone.

// TraceVersion identifies the trace file format. Version 2 added the
// engine metadata (Engine, DPOR); version 3 added the annotator options
// (Annotate). The decision encoding is unchanged, so version-1 and -2
// traces, which lack those fields, remain fully replayable (see Replay)
// and a checked-in v1 fixture keeps that promise honest.
const TraceVersion = 3

// Trace is a recorded schedule, serializable to JSON.
type Trace struct {
	Version      int      `json:"version"`
	Subject      string   `json:"subject"`
	Source       string   `json:"source"`
	SnapshotVars []string `json:"snapshot_vars"`
	// Annotate is the annotator configuration the program was built with
	// (v3). A trace without it was built by the prototype annotator, as
	// every v1 and v2 trace was, and decodes to the zero Options.
	Annotate annotate.Options `json:"annotate"`
	Mode     Mode             `json:"mode"`
	Strategy Strategy         `json:"strategy"`
	// Engine and DPOR record which machinery produced the original run
	// (v2 metadata; replay itself is engine-independent).
	Engine Engine `json:"engine,omitempty"`
	DPOR   bool   `json:"dpor,omitempty"`
	// Gen is a generated subject's provenance (v2 metadata, nil for the
	// hand-written corpus): the (seed, index, corpus) triple regenerates
	// the exact program, so a soak failure is replayable from the trace
	// alone even though Source is also embedded.
	Gen          *GenInfo         `json:"gen,omitempty"`
	Index        int              `json:"index"`
	Seed         int64            `json:"seed"`
	Quantum      uint64           `json:"quantum"`
	Cores        int              `json:"cores"`
	Watchpoints  int              `json:"watchpoints"`
	MaxTicks     uint64           `json:"max_ticks"`
	TimeoutTicks uint64           `json:"timeout_ticks"`
	Serial       map[string]int64 `json:"serial"`
	// Decisions is the chosen thread ID at each decision point.
	Decisions []int `json:"decisions"`
	// Snapshot and Diverged record the original run's verdict, verified
	// on replay.
	Snapshot map[string]int64 `json:"snapshot"`
	Diverged bool             `json:"diverged"`
}

// RecordTrace re-executes one schedule from a report with a recording
// policy and returns its trace. The re-execution is checked against the
// original run — a mismatch means the schedule was not reproducible and is
// an error.
func RecordTrace(subject *Subject, mode Mode, opts Options, run Run) (*Trace, error) {
	c, err := newCampaign(subject, opts)
	if err != nil {
		return nil, err
	}
	defer c.close()
	return c.recordTrace(mode, run)
}

func (c *campaign) recordTrace(mode Mode, run Run) (*Trace, error) {
	var inner vm.SchedulePolicy = &framePolicy{prefix: run.Prefix}
	if c.opts.Strategy == Random {
		inner = randomPolicy{rng: rand.New(rand.NewSource(run.Seed))}
	}
	rec := vm.NewRecorder(inner)
	replayed, err := c.runFresh(mode, rec, run.Quantum, run.Seed)
	if err != nil {
		return nil, err
	}
	if !snapshotsEqual(replayed.Snapshot, run.Snapshot) {
		return nil, fmt.Errorf("explore: %s [%s] schedule %d: re-execution snapshot %v != original %v",
			c.subject.Name, mode, run.Index, replayed.Snapshot, run.Snapshot)
	}
	return &Trace{
		Version:      TraceVersion,
		Subject:      c.subject.Name,
		Source:       c.subject.Source,
		SnapshotVars: c.subject.SnapshotVars,
		Annotate:     c.opts.Annotate,
		Mode:         mode,
		Strategy:     c.opts.Strategy,
		Engine:       c.opts.Engine,
		DPOR:         c.opts.DPOR,
		Gen:          c.subject.Gen,
		Index:        run.Index,
		Seed:         run.Seed,
		Quantum:      run.Quantum,
		Cores:        c.opts.Cores,
		Watchpoints:  c.opts.Watchpoints,
		MaxTicks:     c.opts.MaxTicks,
		TimeoutTicks: c.opts.TimeoutTicks,
		Serial:       c.serial,
		Decisions:    rec.Chosen(),
		Snapshot:     replayed.Snapshot,
		Diverged:     replayed.Diverged,
	}, nil
}

// ReplayResult is the outcome of replaying a trace.
type ReplayResult struct {
	Run Run `json:"run"`
	// Mismatches counts decisions where the recorded thread was not
	// runnable; a faithful replay has zero.
	Mismatches int `json:"mismatches"`
	// Verdict reports whether the replay reproduced the trace's recorded
	// snapshot (and therefore its divergence verdict).
	Verdict bool `json:"verdict"`
}

// Replay re-executes a trace and verifies it reproduces the recorded
// outcome.
func Replay(tr *Trace) (*ReplayResult, error) {
	if err := tr.validate(); err != nil {
		return nil, err
	}
	subject := &Subject{Name: tr.Subject, Source: tr.Source, SnapshotVars: tr.SnapshotVars, Gen: tr.Gen}
	c, err := newCampaign(subject, Options{
		Strategy:     tr.Strategy,
		Schedules:    1,
		Seed:         tr.Seed,
		Cores:        tr.Cores,
		Quantum:      tr.Quantum,
		MaxTicks:     tr.MaxTicks,
		TimeoutTicks: tr.TimeoutTicks,
		Watchpoints:  tr.Watchpoints,
		Parallelism:  1,
		Annotate:     tr.Annotate,
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	if !snapshotsEqual(c.serial, tr.Serial) {
		return nil, fmt.Errorf("explore: %s: serial snapshot %v != trace serial %v",
			tr.Subject, c.serial, tr.Serial)
	}
	rep := vm.NewReplayer(tr.Decisions)
	run, err := c.runFresh(tr.Mode, rep, tr.Quantum, tr.Seed)
	if err != nil {
		return nil, err
	}
	run.Index = tr.Index
	return &ReplayResult{
		Run:        run,
		Mismatches: rep.Mismatches(),
		Verdict:    rep.Mismatches() == 0 && snapshotsEqual(run.Snapshot, tr.Snapshot),
	}, nil
}

// maxTraceTicks bounds a trace's max_ticks, quantum and timeout_ticks; its
// cores and watchpoints are bounded by core.MaxUnits. maxTraceRoots and
// maxTraceRootLen bound the annotator's extra lockset roots, each of which
// names a function of the source.
const (
	maxTraceTicks   = 1_000_000_000
	maxTraceRoots   = 256
	maxTraceRootLen = 256
)

// validate rejects a trace whose configuration Replay cannot trust: an
// unknown mode would silently run as prevention, and unbounded cores,
// watchpoints, tick counts or annotator roots would let a hand-edited file
// over-allocate or hang the replay. Every decision costs at least one
// tick, so a decision list longer than max_ticks cannot be a recorded run.
// Each error names the offending field.
func (tr *Trace) validate() error {
	switch {
	case tr.Version < 1 || tr.Version > TraceVersion:
		return fmt.Errorf("explore: unsupported trace version %d", tr.Version)
	case tr.Mode != Vanilla && tr.Mode != Prevention:
		return fmt.Errorf("explore: trace mode %q: want %q or %q", tr.Mode, Vanilla, Prevention)
	case tr.Strategy != Random && tr.Strategy != DFS:
		return fmt.Errorf("explore: trace strategy %q: want %q or %q", tr.Strategy, Random, DFS)
	case tr.Cores < 1 || tr.Cores > core.MaxUnits:
		return fmt.Errorf("explore: trace cores %d outside [1, %d]", tr.Cores, core.MaxUnits)
	case tr.Watchpoints < 1 || tr.Watchpoints > core.MaxUnits:
		return fmt.Errorf("explore: trace watchpoints %d outside [1, %d]", tr.Watchpoints, core.MaxUnits)
	case tr.MaxTicks > maxTraceTicks:
		return fmt.Errorf("explore: trace max_ticks %d above %d", tr.MaxTicks, uint64(maxTraceTicks))
	case tr.Quantum > maxTraceTicks:
		return fmt.Errorf("explore: trace quantum %d above %d", tr.Quantum, uint64(maxTraceTicks))
	case tr.TimeoutTicks > maxTraceTicks:
		return fmt.Errorf("explore: trace timeout_ticks %d above %d", tr.TimeoutTicks, uint64(maxTraceTicks))
	case tr.MaxTicks > 0 && uint64(len(tr.Decisions)) > tr.MaxTicks:
		return fmt.Errorf("explore: trace has %d decisions, more than its max_ticks %d", len(tr.Decisions), tr.MaxTicks)
	}
	if n := len(tr.Annotate.Roots); n > maxTraceRoots {
		return fmt.Errorf("explore: trace annotate.roots has %d names, more than %d", n, maxTraceRoots)
	}
	for _, r := range tr.Annotate.Roots {
		if len(r) > maxTraceRootLen {
			return fmt.Errorf("explore: trace annotate.roots name of %d bytes, more than %d", len(r), maxTraceRootLen)
		}
	}
	return nil
}

// WriteFile writes the trace as indented JSON.
func (tr *Trace) WriteFile(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTrace loads a trace file.
func ReadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	return &tr, nil
}
