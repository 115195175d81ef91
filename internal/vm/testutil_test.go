package vm

import (
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/kernel"
	"kivati/internal/minic"
	"kivati/internal/whitelist"
)

// buildSrc compiles MiniC source into a binary.
func buildSrc(t testing.TB, src string, opts compile.Options) *compile.Binary {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ap, err := annotate.Annotate(prog)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	bin, err := compile.Compile(ap, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return bin
}

type runOpts struct {
	kcfg     kernel.Config
	mcfg     Config
	wl       *whitelist.Whitelist
	starts   []startSpec
	compile  compile.Options
	annotate bool
}

type startSpec struct {
	fn  string
	arg int64
}

func defaultRunOpts() runOpts {
	return runOpts{
		kcfg: kernel.Config{
			Mode:           kernel.Prevention,
			Opt:            kernel.OptBase,
			NumWatchpoints: 4,
			TimeoutTicks:   10000,
		},
		mcfg:     Config{Cores: 2, Seed: 1, MaxTicks: 5_000_000},
		compile:  compile.Options{Annotate: true},
		annotate: true,
	}
}

// newTestKernel builds a kernel from runOpts.
func newTestKernel(o runOpts) *kernel.Kernel {
	return kernel.New(o.kcfg, o.wl, nil, nil)
}

// run compiles and runs src with the given options.
func run(t *testing.T, src string, o runOpts) (*Machine, *Result) {
	t.Helper()
	bin := buildSrc(t, src, o.compile)
	if o.kcfg.Opt == kernel.OptOptimized && o.compile.ShadowWrites {
		o.kcfg.ShadowDelta = compile.ShadowDelta
	}
	k := kernel.New(o.kcfg, o.wl, nil, nil)
	m, err := New(bin, k, o.mcfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	starts := o.starts
	if len(starts) == 0 {
		starts = []startSpec{{fn: "main"}}
	}
	for _, s := range starts {
		if _, err := m.Start(s.fn, s.arg); err != nil {
			t.Fatalf("Start(%s): %v", s.fn, err)
		}
	}
	res := m.Run()
	for _, f := range res.Faults {
		t.Errorf("fault: %s", f)
	}
	return m, res
}

func compileOptsAnnotated() compile.Options { return compile.Options{Annotate: true} }
