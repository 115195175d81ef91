package harness

import (
	"fmt"

	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/vm"
	"kivati/internal/whitelist"
	"kivati/internal/workloads"
)

// appRun executes one workload under one configuration. After
// prepareWithOptions returns, an appRun is read-only — the program's binary cache is
// internally locked and the whitelist is never mutated by a run — so one
// appRun is shared by every concurrent pool worker and memoized across
// tables by the build cache.
type appRun struct {
	spec *workloads.Spec
	prog *core.Program
	wl   *whitelist.Whitelist // sync-var whitelist for this program
}

// prepareWithOptions builds a workload's program and its sync-var
// whitelist once under an annotator configuration. The workload's thread entry points become lockset analysis roots, so
// functions only ever started by the harness are still treated as running
// without their callers' locks.
func prepareWithOptions(spec *workloads.Spec, opts annotate.Options) (*appRun, error) {
	for _, s := range spec.Starts {
		opts.Roots = append(opts.Roots, s.Fn)
	}
	p, err := core.BuildWithOptions(spec.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", spec.Name, err)
	}
	wl, err := p.SyncVarWhitelist(spec.FlagVars...)
	if err != nil {
		return nil, err
	}
	return &appRun{spec: spec, prog: p, wl: wl}, nil
}

// config materializes a RunConfig for the given mode and optimization level.
// Whitelist-bearing levels (SyncVars, Optimized) get the sync-var whitelist.
func (a *appRun) config(o Options, mode kernel.Mode, opt kernel.OptLevel, vanilla bool) core.RunConfig {
	cfg := baseConfig(o.Seed)
	cfg.Mode, cfg.Opt, cfg.Vanilla = mode, opt, vanilla
	cfg.Starts = a.spec.Starts
	if a.spec.Requests != nil {
		r := *a.spec.Requests
		cfg.Requests = &r
	}
	if mode == kernel.BugFinding {
		cfg.PauseTicks = Pause20
		cfg.PauseEvery = PauseEvery
	}
	if opt.UseWhitelist() {
		cfg.Whitelist = a.wl
	}
	return cfg
}

// run executes and returns the result, turning faults into errors.
func (a *appRun) run(cfg core.RunConfig) (*vm.Result, error) {
	res, err := core.Run(a.prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", a.spec.Name, err)
	}
	if res.Reason != "completed" {
		return nil, fmt.Errorf("harness: %s: run did not complete: %s (ticks=%d)",
			a.spec.Name, res.Reason, res.Ticks)
	}
	return res, nil
}
