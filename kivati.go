// Package kivati is a from-scratch reproduction of "Kivati: Fast Detection
// and Prevention of Atomicity Violations" (Chew & Lie, EuroSys 2010).
//
// Kivati detects and prevents atomicity-violation bugs in running programs
// using hardware watchpoints. A static annotator brackets every consecutive
// pair of accesses to a shared variable — an atomic region (AR) — with
// begin_atomic/end_atomic annotations; at run time, begin_atomic arms a
// debug-register watchpoint on the variable, remote accesses that interleave
// trap into a kernel engine that undoes the committed access (x86 traps
// after the access) and delays the remote thread until the region completes,
// and end_atomic applies the serializability test of the paper's Figure 2 to
// decide whether a violation occurred.
//
// Because real debug registers are unreachable from Go, the library ships
// its own substrate: a MiniC front end standing in for C+CIL, a
// variable-length bytecode machine with per-core watchpoint registers and
// trap-after semantics, and a simulated kernel — so the paper's algorithms
// run end to end. See DESIGN.md for the substitution map.
//
// Quick start:
//
//	p, _ := kivati.Build(src)
//	report, _ := kivati.Run(p, kivati.Config{Mode: kivati.Prevention})
//	for _, v := range report.Violations { fmt.Println(v) }
package kivati

import (
	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/hw"
	"kivati/internal/kernel"
	"kivati/internal/trace"
	"kivati/internal/vm"
	"kivati/internal/whitelist"
)

// Mode selects prevention mode (low overhead) or bug-finding mode (pauses
// threads inside atomic regions to amplify interleavings, §2.3).
type Mode = kernel.Mode

const (
	Prevention = kernel.Prevention
	BugFinding = kernel.BugFinding
)

// OptLevel selects the optimization configuration (the paper's Table 3
// columns).
type OptLevel = kernel.OptLevel

const (
	OptBase        = kernel.OptBase
	OptNullSyscall = kernel.OptNullSyscall
	OptSyncVars    = kernel.OptSyncVars
	OptOptimized   = kernel.OptOptimized
)

// AccessType is a memory access kind (Read, Write or both).
type AccessType = hw.AccessType

const (
	Read  = hw.Read
	Write = hw.Write
)

// Violation is a detected atomicity violation, with the thread IDs, shared
// variable address and program counters of the involved accesses.
type Violation = trace.Violation

// Stats are the run's execution and kernel-entry counters.
type Stats = kernel.Stats

// FormatViolationReport renders a developer-facing report that groups
// violations by atomic region, with the thread IDs, variable addresses and
// program counters the paper's trace records contain (§2.2).
func FormatViolationReport(vs []Violation) string { return trace.FormatReport(vs) }

// Whitelist is the set of benign AR IDs skipped in user space.
type Whitelist = whitelist.Whitelist

// NewWhitelist returns an empty whitelist.
func NewWhitelist() *Whitelist { return whitelist.New() }

// LoadWhitelist reads a whitelist file (one AR ID per line, # comments).
func LoadWhitelist(path string) (*Whitelist, error) { return whitelist.Load(path) }

// Program is a built (annotated and compiled) MiniC program.
type Program struct {
	p *core.Program
}

// Build parses a MiniC source, runs the static annotator (LSV + reaching
// access pairing) and prepares it for execution.
func Build(source string) (*Program, error) {
	p, err := core.Build(source)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Analysis selects the static-analysis extensions of the paper's §3.5
// future work.
type Analysis struct {
	// Precise enables the points-to pass: monitoring is restricted to
	// variables another thread can actually reach, and single-target
	// pointer dereferences fold onto their pointees (atomic regions form
	// across aliases).
	Precise bool
	// InterProcedural treats each call as a compound access to the
	// globals its callee transitively touches, so atomic regions span
	// subroutine boundaries (a caller-side check paired with a helper's
	// update).
	InterProcedural bool
	// Lockset runs the flow-sensitive Eraser-style lockset analysis and
	// marks every AR it proves serializable (both accesses consistently
	// protected by a common lock); StaticWhitelist then works.
	Lockset bool
	// Optimize enables the annotation optimizer: proven-benign ARs are
	// dropped, ARs covered by sub-regions are deduplicated, and chained
	// same-watch ARs coalesce. Implies Lockset.
	Optimize bool
	// Roots names extra thread entry functions (beyond main, spawn targets
	// and uncalled functions) for the lockset analysis.
	Roots []string
}

// BuildWithAnalysis is Build with the selected §3.5 analysis extensions.
func BuildWithAnalysis(source string, a Analysis) (*Program, error) {
	p, err := core.BuildWithOptions(source, annotate.Options{
		Precise:         a.Precise,
		InterProcedural: a.InterProcedural,
		Lockset:         a.Lockset || a.Optimize,
		Roots:           a.Roots,
		Optimize: annotate.OptimizeOptions{
			DropBenign: a.Optimize,
			Dedupe:     a.Optimize,
			Coalesce:   a.Optimize,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// BuildPrecise is BuildWithAnalysis with only the points-to pass enabled.
func BuildPrecise(source string) (*Program, error) {
	return BuildWithAnalysis(source, Analysis{Precise: true})
}

// AnnotatedSource renders the program with its begin_atomic / end_atomic /
// clear_ar annotations, in the style of the paper's Figures 3 and 4.
func (p *Program) AnnotatedSource() string {
	return annotate.PrintAnnotated(p.p.Annotated)
}

// AR describes one static atomic region.
type AR struct {
	ID     int
	Func   string
	Var    string
	First  AccessType
	Second AccessType
	Watch  AccessType
}

// ARs lists the program's atomic regions.
func (p *Program) ARs() []AR {
	out := make([]AR, 0, len(p.p.Annotated.ARs))
	for _, ar := range p.p.Annotated.ARs {
		out = append(out, AR{
			ID: ar.ID, Func: ar.Func, Var: ar.Key.String(),
			First: ar.First, Second: ar.Second, Watch: ar.Watch,
		})
	}
	return out
}

// SyncVarWhitelist returns the ARs on synchronization variables (lock and
// unlock operands, plus any extra flag names), the seed for optimization 4.
func (p *Program) SyncVarWhitelist(extraNames ...string) (*Whitelist, error) {
	return p.p.SyncVarWhitelist(extraNames...)
}

// StaticWhitelist returns the sync-variable whitelist plus every AR the
// lockset analysis statically proved serializable — a compile-time
// replacement for the Figure 7 training loop. The program must have been
// built with Analysis.Lockset (or Optimize) set.
func (p *Program) StaticWhitelist(extraNames ...string) (*Whitelist, error) {
	return p.p.StaticWhitelist(extraNames...)
}

// Start names a thread entry function and its integer argument.
type Start = core.Start

// RequestConfig drives the open-loop request generator for server programs
// using recv()/send().
type RequestConfig = vm.RequestConfig

// Config configures a run. The zero value runs prevention mode at the Base
// optimization level on 2 cores with 4 watchpoints, starting main().
type Config struct {
	Mode           Mode
	Opt            OptLevel
	Vanilla        bool // run without any Kivati instrumentation (baseline)
	NumWatchpoints int  // default 4 (x86 debug registers)
	Cores          int  // default 2
	Seed           int64
	MaxTicks       uint64 // virtual-time budget; default 500M ticks
	TimeoutTicks   uint64 // suspension timeout; default 10_000 (10 ms)
	PauseTicks     uint64 // bug-finding pause length
	PauseEvery     uint64 // bug-finding pause sampling (every Nth begin)
	// TrapBefore simulates before-access watchpoint hardware (Table 1:
	// SPARC/MIPS-class) instead of x86's trap-after semantics; the
	// prevention engine then delays remote threads without any undo.
	TrapBefore bool
	Whitelist  *Whitelist
	// WhitelistReloadTicks periodically re-reads the whitelist from its
	// backing source during execution (0 = every 1M ticks when a source
	// exists), so trained updates reach long-running processes (§3.2).
	WhitelistReloadTicks uint64
	Requests             *RequestConfig
	Starts               []Start
	// OnViolation, if set, sees each violation as it is detected;
	// returning true stops the run.
	OnViolation func(Violation) bool
}

// Report is the outcome of a run.
type Report struct {
	Violations []Violation
	Stats      *Stats
	Output     []int64  // values passed to print()
	Latencies  []uint64 // request latencies (server programs)
	Reason     string   // "completed", "max-ticks", "stopped", "deadlock"
	Ticks      uint64   // virtual time consumed
}

func (c Config) toCore() core.RunConfig {
	return core.RunConfig{
		Mode:                 c.Mode,
		Opt:                  c.Opt,
		Vanilla:              c.Vanilla,
		NumWatchpoints:       c.NumWatchpoints,
		Cores:                c.Cores,
		Seed:                 c.Seed,
		MaxTicks:             c.MaxTicks,
		TimeoutTicks:         c.TimeoutTicks,
		PauseTicks:           c.PauseTicks,
		PauseEvery:           c.PauseEvery,
		TrapBefore:           c.TrapBefore,
		Whitelist:            c.Whitelist,
		WhitelistReloadTicks: c.WhitelistReloadTicks,
		Requests:             c.Requests,
		OnViolation:          c.OnViolation,
		Starts:               c.Starts,
	}
}

// Run executes the program under Kivati.
func Run(p *Program, cfg Config) (*Report, error) {
	res, err := core.Run(p.p, cfg.toCore())
	if err != nil {
		return nil, err
	}
	return &Report{
		Violations: res.Violations,
		Stats:      res.Stats,
		Output:     res.Output,
		Latencies:  res.Latencies,
		Reason:     res.Reason,
		Ticks:      res.Ticks,
	}, nil
}

// TrainResult reports a whitelist training campaign (§4.2 / Figure 7).
type TrainResult struct {
	Whitelist *Whitelist
	NewFPs    []int // new false positives found per iteration
}

// Train repeatedly runs the program, whitelisting every violated AR that is
// not on a known-bug variable — the paper's procedure for eliminating benign
// and required violations before deployment.
func Train(p *Program, cfg Config, iterations int, bugVars []string) (*TrainResult, error) {
	bugs := map[string]bool{}
	for _, v := range bugVars {
		bugs[v] = true
	}
	tr, err := core.Train(p.p, cfg.toCore(), iterations, bugs)
	if err != nil {
		return nil, err
	}
	return &TrainResult{Whitelist: tr.Whitelist, NewFPs: tr.NewFPs}, nil
}
