package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

const src = `
int s;
int lk;
int done;
void worker(int n) {
    int i;
    i = 0;
    while (i < 50) {
        s = s + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 0);
    worker(0);
    while (done < 2) {
        yield();
    }
    print(s);
}
`

func TestBuildErrors(t *testing.T) {
	if _, err := Build("not a program"); err == nil {
		t.Error("want parse error")
	}
	if _, err := BuildWithOptions("void f() { undefined(); }", annotate.Options{Precise: true}); err == nil {
		t.Error("want check error")
	}
}

func TestBinaryCaching(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.Binary(compile.Options{Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Binary(compile.Options{Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("same options recompiled instead of cached")
	}
	v, err := p.Binary(compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v == a1 {
		t.Error("vanilla and annotated binaries must differ")
	}
}

func TestRunDefaults(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	// Zero config: prevention, base, 2 cores, 4 watchpoints, main().
	res, err := Run(p, RunConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "completed" {
		t.Fatalf("reason %q", res.Reason)
	}
	if len(res.Output) != 1 {
		t.Fatalf("output %v", res.Output)
	}
	if res.Stats.Begins == 0 {
		t.Error("annotations not executed under defaults")
	}
}

func TestRunUnknownStart(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, RunConfig{Starts: []Start{{Fn: "nope"}}}); err == nil {
		t.Error("want error for unknown entry function")
	}
}

func TestRunFaultReturnsError(t *testing.T) {
	p, err := Build(`
int z;
void main() {
    print(1 / z);
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, RunConfig{}); err == nil {
		t.Error("want error for faulting program")
	}
}

func TestShadowDeltaOnlyWithOpt3(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	// Base config compiles without shadow writes.
	cfg := RunConfig{Opt: kernel.OptBase}
	if got := cfg.compileOptions(); got.ShadowWrites {
		t.Error("base config requested shadow writes")
	}
	cfg = RunConfig{Opt: kernel.OptOptimized}
	if got := cfg.compileOptions(); !got.ShadowWrites || !got.Annotate {
		t.Errorf("optimized compile options = %+v", got)
	}
	cfg = RunConfig{Vanilla: true}
	if got := cfg.compileOptions(); got.Annotate {
		t.Error("vanilla config requested annotations")
	}
	_ = p
}

func TestTrainRespectsBugVars(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Train(p, RunConfig{Seed: 3}, 2, map[string]bool{"s": true})
	if err != nil {
		t.Fatal(err)
	}
	// Every violation in this program is on the bug variable: nothing may
	// be whitelisted.
	if tr.Whitelist.Len() != 0 {
		t.Errorf("bug-variable ARs whitelisted: %v", tr.Whitelist.IDs())
	}
	tr2, err := Train(p, RunConfig{Seed: 3}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Whitelist.Len() == 0 {
		t.Error("training without bug vars whitelisted nothing")
	}
}

func TestSyncVarWhitelistExtraNames(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.SyncVarWhitelist()
	if err != nil {
		t.Fatal(err)
	}
	withDone, err := p.SyncVarWhitelist("done")
	if err != nil {
		t.Fatal(err)
	}
	if withDone.Len() <= base.Len() {
		t.Errorf("extra flag name added nothing: %d vs %d", withDone.Len(), base.Len())
	}
}

// TestRunConfigBounds: core counts and watchpoint counts outside
// [1, MaxUnits] are refused by both Run and NewSession, naming the field;
// zero still selects the default.
func TestRunConfigBounds(t *testing.T) {
	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		cores, wp int
		field     string // "" when the configuration is accepted
	}{
		{"defaults", 0, 0, ""},
		{"one each", 1, 1, ""},
		{"at bound", MaxUnits, MaxUnits, ""},
		{"cores negative", -1, 0, "Cores"},
		{"cores above bound", MaxUnits + 1, 0, "Cores"},
		{"cores hostile", 50_000_000, 0, "Cores"},
		{"watchpoints negative", 0, -1, "NumWatchpoints"},
		{"watchpoints above bound", 0, MaxUnits + 1, "NumWatchpoints"},
		{"watchpoints hostile", 0, 100_000_000, "NumWatchpoints"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunConfig{Cores: tc.cores, NumWatchpoints: tc.wp, Seed: 1}
			_, runErr := Run(p, cfg)
			s, sessErr := NewSession(p, cfg)
			if sessErr == nil {
				s.Close()
			}
			for what, err := range map[string]error{"Run": runErr, "NewSession": sessErr} {
				switch {
				case tc.field == "" && err != nil:
					t.Errorf("%s: %v", what, err)
				case tc.field != "" && err == nil:
					t.Errorf("%s accepted %s outside [1, %d]", what, tc.field, MaxUnits)
				case tc.field != "" && !strings.Contains(err.Error(), tc.field+" "):
					t.Errorf("%s: error %q does not name %s", what, err, tc.field)
				}
			}
		})
	}
}

// TestRunConfigRouting: every RunConfig field has a route, and every
// kernel-bound field set to a non-default value reaches the session
// machine's kernel.Config unchanged. A field added to RunConfig, or to
// kernel.Config or vm.Config, without a route fails here instead of being
// dropped silently on its way to the run.
func TestRunConfigRouting(t *testing.T) {
	// Kernel and VM fields are copied into kernel.Config and vm.Config
	// under the same name; the session fields are read by newSession, Run
	// or finish themselves.
	routes := struct{ kernel, vm, session []string }{
		kernel:  []string{"Mode", "Opt", "NumWatchpoints", "TimeoutTicks", "PauseTicks", "PauseEvery", "TrapBefore"},
		vm:      []string{"Cores", "Seed", "MaxTicks", "Costs", "Requests", "Policy", "Dispatch"},
		session: []string{"Vanilla", "Whitelist", "WhitelistReloadTicks", "OnViolation", "Starts", "SnapshotVars", "HashMemory"},
	}
	rt := reflect.TypeOf(RunConfig{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		n := 0
		for _, r := range [][]string{routes.kernel, routes.vm, routes.session} {
			if slices.Contains(r, name) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("RunConfig.%s has %d routes, want exactly 1", name, n)
		}
	}
	for _, c := range []struct {
		typ    reflect.Type
		routed []string
	}{
		// ShadowDelta is derived from the binary and the Opt level.
		{reflect.TypeOf(kernel.Config{}), append(routes.kernel, "ShadowDelta")},
		{reflect.TypeOf(vm.Config{}), routes.vm},
	} {
		for i := 0; i < c.typ.NumField(); i++ {
			if name := c.typ.Field(i).Name; !slices.Contains(c.routed, name) {
				t.Errorf("%s.%s is not set from RunConfig", c.typ, name)
			}
		}
	}

	p, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	nonDefault := map[string]any{
		"Mode": kernel.BugFinding, "Opt": kernel.OptOptimized, "NumWatchpoints": 7,
		"TimeoutTicks": uint64(12_345), "PauseTicks": uint64(777), "PauseEvery": uint64(9),
		"TrapBefore": true,
	}
	for _, name := range routes.kernel {
		want, ok := nonDefault[name]
		if !ok {
			t.Errorf("no non-default value for kernel-bound RunConfig.%s", name)
			continue
		}
		var cfg RunConfig
		reflect.ValueOf(&cfg).Elem().FieldByName(name).Set(reflect.ValueOf(want))
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := reflect.ValueOf(s.Machine().K.Cfg).FieldByName(name).Interface()
		s.Close()
		if got != want {
			t.Errorf("RunConfig.%s = %v reached kernel.Config as %v", name, want, got)
		}
	}
}
