// Package core ties Kivati's pieces into the end-to-end pipeline the paper
// describes: static annotation of a program's atomic regions, compilation to
// the machine binary (with the pre-processing pass artifacts), and execution
// under the kernel prevention engine with a chosen mode, optimization level
// and whitelist. It also implements the whitelist training loop of §4.2.
package core

import (
	"fmt"
	"sync"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/kernel"
	"kivati/internal/minic"
	"kivati/internal/trace"
	"kivati/internal/vm"
	"kivati/internal/whitelist"
)

// Program is a built (annotated) program, with compiled binaries cached per
// code-generation variant. After Build returns, a Program is read-only
// except for the binary cache, which is guarded by a mutex — so one Program
// may serve any number of concurrent Run calls (the harness fans runs out
// across a worker pool).
type Program struct {
	Source    string
	AST       *minic.Program
	Annotated *annotate.Program

	mu   sync.Mutex
	bins map[compile.Options]*compile.Binary
}

// Build parses, annotates and prepares a MiniC program using the paper
// prototype's analysis.
func Build(source string) (*Program, error) {
	return BuildWithOptions(source, annotate.Options{})
}

// BuildWithOptions selects the annotator precision (the §3.5 points-to
// extension when opts.Precise is set).
func BuildWithOptions(source string, opts annotate.Options) (*Program, error) {
	ast, err := minic.Parse(source)
	if err != nil {
		return nil, err
	}
	ap, err := annotate.AnnotateWithOptions(ast, opts)
	if err != nil {
		return nil, err
	}
	return &Program{
		Source:    source,
		AST:       ast,
		Annotated: ap,
		bins:      map[compile.Options]*compile.Binary{},
	}, nil
}

// Binary returns (compiling on first use) the binary for the given options.
// Safe for concurrent use; a variant compiles at most once per Program.
func (p *Program) Binary(opts compile.Options) (*compile.Binary, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.bins[opts]; ok {
		return b, nil
	}
	b, err := compile.Compile(p.Annotated, opts)
	if err != nil {
		return nil, err
	}
	p.bins[opts] = b
	return b, nil
}

// SyncVarWhitelist returns the whitelist of ARs on synchronization variables
// (optimization 4): ARs whose shared variable is passed to lock/unlock, plus
// any extra names the caller identifies as flags.
func (p *Program) SyncVarWhitelist(extraNames ...string) (*whitelist.Whitelist, error) {
	bin, err := p.Binary(compile.Options{Annotate: true})
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for n := range bin.SyncVars {
		names[n] = true
	}
	for _, n := range extraNames {
		names[n] = true
	}
	wl := whitelist.New()
	for _, ar := range p.Annotated.ARs {
		if names[ar.Key.Name] {
			wl.Add(ar.ID)
		}
	}
	return wl, nil
}

// StaticWhitelist returns the compile-time whitelist: the sync-variable
// whitelist plus every AR whose serializability the lockset analysis proved
// (the static replacement for the Figure 7 training loop — the runtime path
// is unchanged, only the whitelist's provenance differs). The program must
// have been built with annotate.Options.Lockset set.
func (p *Program) StaticWhitelist(extraNames ...string) (*whitelist.Whitelist, error) {
	if p.Annotated.Locks == nil {
		return nil, fmt.Errorf("core: program was built without the lockset analysis")
	}
	wl, err := p.SyncVarWhitelist(extraNames...)
	if err != nil {
		return nil, err
	}
	for _, id := range p.Annotated.StaticWhitelistIDs() {
		wl.Add(id)
	}
	return wl, nil
}

// Start names a thread entry point and its argument.
type Start struct {
	Fn  string
	Arg int64
}

// RunConfig configures one execution. The zero value runs prevention mode
// at the Base optimization level on 2 cores with 4 watchpoints, starting
// main().
type RunConfig struct {
	Mode           kernel.Mode
	Opt            kernel.OptLevel
	Vanilla        bool   // run the unannotated binary (baseline)
	NumWatchpoints int    // default 4 (x86 debug registers)
	Cores          int    // default 2
	Seed           int64  // selects the interleaving
	MaxTicks       uint64 // virtual-time budget; default 500M ticks
	TimeoutTicks   uint64 // suspension timeout; default 10_000 (10 ms at 1 tick = 1 µs)
	PauseTicks     uint64 // bug-finding pause length
	PauseEvery     uint64 // bug-finding pause sampling (every Nth begin)
	// TrapBefore simulates before-access watchpoint hardware (Table 1:
	// SPARC/MIPS-class) instead of x86's trap-after semantics; the
	// prevention engine then delays remote threads without any undo.
	TrapBefore bool
	// Whitelist holds the benign AR IDs the run skips in user space.
	Whitelist *whitelist.Whitelist
	// WhitelistReloadTicks re-reads the whitelist from its backing source
	// every interval (§3.2: "the whitelist file is periodically checked
	// and re-read for updates during execution so that a software
	// developer can send patches to customers ... for long running
	// processes"). 0 uses 1M ticks (~1 s) when the whitelist has a
	// source; whitelists without a source are never reloaded.
	WhitelistReloadTicks uint64
	// Requests drives the open-loop request generator of server programs
	// that use recv()/send().
	Requests *vm.RequestConfig
	Costs    vm.Costs // zero: vm.DefaultCosts()
	// OnViolation, if set, is invoked per violation; returning true stops
	// the run (time-to-detection experiments).
	OnViolation func(trace.Violation) bool
	// Starts lists the initial threads; default is one thread in main().
	Starts []Start
	// Policy, if non-nil, is the controlled scheduler for this run: it is
	// consulted at every decision point instead of the VM's seeded
	// randomization (schedule exploration and trace replay).
	Policy vm.SchedulePolicy
	// SnapshotVars names globals whose final values are captured into
	// Result.Snapshot after the run — the shared-memory observables the
	// differential oracle compares across schedules.
	SnapshotVars []string
	// Dispatch selects the VM execution tier (see vm.DispatchMode):
	// DispatchFast (the default) is the basic-block fast tier, with or
	// without a Policy; DispatchStep is the reference interpreter.
	Dispatch vm.DispatchMode
	// HashMemory, when set, fills Result.MemHash with the FNV-1a hash of
	// final data memory (differential dispatch testing).
	HashMemory bool
}

// MaxUnits bounds RunConfig.Cores and RunConfig.NumWatchpoints: the VM
// allocates state per core and per watchpoint register, so a hostile count
// must be refused before it reaches the allocator.
const MaxUnits = 64

// defaults fills the zero fields of c and rejects the counts outside their
// bounds, naming the offending field.
func (c *RunConfig) defaults() error {
	if c.NumWatchpoints == 0 {
		c.NumWatchpoints = 4
	}
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Cores < 1 || c.Cores > MaxUnits {
		return fmt.Errorf("core: Cores %d outside [1, %d]", c.Cores, MaxUnits)
	}
	if c.NumWatchpoints < 1 || c.NumWatchpoints > MaxUnits {
		return fmt.Errorf("core: NumWatchpoints %d outside [1, %d]", c.NumWatchpoints, MaxUnits)
	}
	if c.TimeoutTicks == 0 {
		c.TimeoutTicks = 10_000
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 500_000_000
	}
	if len(c.Starts) == 0 {
		c.Starts = []Start{{Fn: "main"}}
	}
	return nil
}

// compileOptions picks the code-generation variant for a run: vanilla, or
// annotated with shadow writes when optimization 3 will be active.
func (c *RunConfig) compileOptions() compile.Options {
	if c.Vanilla {
		return compile.Options{}
	}
	return compile.Options{Annotate: true, ShadowWrites: c.Opt.UseUserLib()}
}

// Run executes the program once under the given configuration. Its
// machine is built and its results extracted by the same code as a
// Session's, and its memory image is released for the next run to reuse.
func Run(p *Program, cfg RunConfig) (*vm.Result, error) {
	s, err := newSession(p, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if wl := s.cfg.Whitelist; wl != nil && wl.Source != nil {
		interval := s.cfg.WhitelistReloadTicks
		if interval == 0 {
			interval = 1_000_000
		}
		var reload func()
		reload = func() {
			// A failed read keeps the current whitelist (§3.2's
			// long-running-process patching must never regress).
			_ = wl.Reload()
			s.m.After(interval, reload)
		}
		s.m.After(interval, reload)
	}
	return s.finish(s.m.Run())
}

// TrainResult reports one whitelist training campaign (§4.2, Figure 7).
type TrainResult struct {
	Whitelist *whitelist.Whitelist
	// NewFPs[i] is the number of new false positives (violated ARs not
	// yet whitelisted) observed in iteration i.
	NewFPs []int
}

// Train runs the program repeatedly, adding every violated AR that is not a
// known bug to the whitelist after each iteration — the paper's training
// procedure for eliminating benign and required violations. bugVars names
// shared variables whose violations are real bugs and must never be
// whitelisted (empty for pure training workloads).
func Train(p *Program, cfg RunConfig, iterations int, bugVars map[string]bool) (*TrainResult, error) {
	wl := whitelist.New()
	if cfg.Whitelist != nil {
		wl.Merge(cfg.Whitelist)
	}
	out := &TrainResult{Whitelist: wl}
	for i := 0; i < iterations; i++ {
		iterCfg := cfg
		iterCfg.Whitelist = wl
		iterCfg.Seed = cfg.Seed + int64(i)*7919
		res, err := Run(p, iterCfg)
		if err != nil {
			return nil, err
		}
		fresh := 0
		for _, v := range res.Violations {
			if bugVars[v.Var] {
				continue
			}
			if !wl.Contains(v.ARID) {
				wl.Add(v.ARID)
				fresh++
			}
		}
		out.NewFPs = append(out.NewFPs, fresh)
	}
	return out, nil
}
