package kivati_test

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"kivati"
	"kivati/internal/core"
	"kivati/internal/workloads"
)

const raceSrc = `
int shared;
int lk;
int done;
void worker(int n) {
    int i;
    i = 0;
    while (i < 200) {
        shared = shared + 1;
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
    print(shared);
}
`

func TestBuildAndRun(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := kivati.Run(p, kivati.Config{Seed: 2, MaxTicks: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != "completed" {
		t.Fatalf("reason %q", rep.Reason)
	}
	if len(rep.Output) != 1 {
		t.Fatalf("output %v", rep.Output)
	}
	if rep.Stats.Begins == 0 {
		t.Error("no annotations executed")
	}
	if len(rep.Violations) == 0 {
		t.Error("unlocked counter race produced no violations")
	}
}

func TestVanillaRun(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := kivati.Run(p, kivati.Config{Vanilla: true, Seed: 2, MaxTicks: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Stats.Begins != 0 {
		t.Error("vanilla run was instrumented")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := kivati.Build("int x; garbage"); err == nil {
		t.Error("want parse error")
	}
	if _, err := kivati.BuildPrecise("void f() { y = 1; }"); err == nil {
		t.Error("want resolution error")
	}
}

func TestARsAndAnnotatedSource(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	ars := p.ARs()
	if len(ars) == 0 {
		t.Fatal("no ARs")
	}
	found := false
	for _, ar := range ars {
		if ar.Var == "shared" && ar.First == kivati.Read && ar.Second == kivati.Write {
			found = true
			if ar.Watch != kivati.Write {
				t.Errorf("R-W AR watches %v, want W", ar.Watch)
			}
		}
	}
	if !found {
		t.Error("R-W AR on shared not listed")
	}
	src := p.AnnotatedSource()
	for _, want := range []string{"begin_atomic(", "end_atomic(", "clear_ar()"} {
		if !strings.Contains(src, want) {
			t.Errorf("annotated source missing %q", want)
		}
	}
}

// TestPreciseDetectsAliasBug: a race where one side accesses the shared
// variable only through a pointer. The prototype analysis keys the accesses
// differently and forms no cross-alias AR; the precise analysis folds the
// dereference onto the pointee and the violation is caught.
func TestPreciseDetectsAliasBug(t *testing.T) {
	src := `
int account;
int done;
int lk;
void viaAlias(int n) {
    int *p;
    int t;
    int i;
    p = &account;
    i = 0;
    while (i < 300) {
        t = *p;
        *p = t + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void direct(int n) {
    int t;
    int i;
    i = 0;
    while (i < 300) {
        t = account;
        account = t + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(viaAlias, 0);
    direct(0);
    while (done < 2) {
        yield();
    }
}
`
	run := func(p *kivati.Program) int {
		rep, err := kivati.Run(p, kivati.Config{Seed: 4, MaxTicks: 200_000_000})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range rep.Violations {
			if v.Var == "account" || v.Var == "*p" {
				n++
			}
		}
		return n
	}
	precise, err := kivati.BuildPrecise(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := run(precise); n == 0 {
		t.Error("precise analysis missed the alias race")
	}
	// The crude build still monitors both sides under different keys —
	// the direct side's own ARs catch remote writes regardless of how the
	// remote thread performs them, so we only assert the precise build's
	// AR table actually folded the alias.
	crude, err := kivati.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	crudeARs, preciseARs := crude.ARs(), precise.ARs()
	crudeDeref, preciseDeref := 0, 0
	for _, ar := range crudeARs {
		if strings.HasPrefix(ar.Var, "*") {
			crudeDeref++
		}
	}
	for _, ar := range preciseARs {
		if strings.HasPrefix(ar.Var, "*") {
			preciseDeref++
		}
	}
	if crudeDeref == 0 {
		t.Error("crude analysis should key the alias accesses as *p")
	}
	if preciseDeref != 0 {
		t.Error("precise analysis should fold *p onto account")
	}
	if len(preciseARs) >= len(crudeARs) {
		t.Errorf("precise ARs (%d) not below crude (%d)", len(preciseARs), len(crudeARs))
	}
}

func TestPreciseReducesOverhead(t *testing.T) {
	// Value-dependent locals dominate this program; the precise analysis
	// removes their monitors and the run gets cheaper.
	src := `
int shared;
int done;
int lk;
void worker(int n) {
    int a;
    int b;
    int c;
    int i;
    i = 0;
    while (i < 150) {
        a = shared;
        b = a * 3 + i;
        c = b - a;
        a = c + b;
        shared = a % 1000;
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
}
`
	measure := func(p *kivati.Program) (uint64, uint64) {
		rep, err := kivati.Run(p, kivati.Config{Seed: 1, MaxTicks: 400_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Ticks, rep.Stats.Begins
	}
	crude, err := kivati.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := kivati.BuildPrecise(src)
	if err != nil {
		t.Fatal(err)
	}
	ct, cb := measure(crude)
	pt, pb := measure(precise)
	if pb >= cb {
		t.Errorf("precise begins (%d) not below crude (%d)", pb, cb)
	}
	if pt >= ct {
		t.Errorf("precise runtime (%d) not below crude (%d)", pt, ct)
	}
}

func TestTrainAPI(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := kivati.Train(p, kivati.Config{Seed: 2, MaxTicks: 100_000_000}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.NewFPs) != 3 {
		t.Fatalf("NewFPs = %v", tr.NewFPs)
	}
	if tr.Whitelist.Len() == 0 {
		t.Error("training whitelisted nothing despite the race")
	}
	// With the trained whitelist the violations disappear.
	rep, err := kivati.Run(p, kivati.Config{
		Opt: kivati.OptSyncVars, Whitelist: tr.Whitelist, Seed: 2, MaxTicks: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("trained run still reports %d violations", len(rep.Violations))
	}
}

func TestSyncVarWhitelistAPI(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := p.SyncVarWhitelist("done")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Len() == 0 {
		t.Error("no sync-var ARs found (lk and done have ARs)")
	}
}

func TestOnViolationStops(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := kivati.Run(p, kivati.Config{
		Seed: 2, MaxTicks: 100_000_000,
		OnViolation: func(v kivati.Violation) bool {
			calls++
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || rep.Reason != "stopped" {
		t.Errorf("calls=%d reason=%q", calls, rep.Reason)
	}
}

// TestInterProceduralDetectsHelperBug: the Figure 1 pattern factored into a
// helper function — the prototype analysis forms no caller-level AR, so the
// race is invisible; the inter-procedural extension catches it.
func TestInterProceduralDetectsHelperBug(t *testing.T) {
	src := `
int shared_ptr;
int inits;
int done;
int lk;
void init_session(int id) {
    shared_ptr = id;
    inits = inits + 1;
}
void reset_session(int id) {
    shared_ptr = 0;
}
int think(int v) {
    int x;
    int j;
    x = v;
    j = 0;
    while (j < 25) {
        x = x * 31 + j;
        j = j + 1;
    }
    if (x < 0) {
        x = 0 - x;
    }
    return x;
}
void racer(int id) {
    int i;
    int w;
    i = 0;
    while (i < 600) {
        w = think(id * 131 + i);
        if (w % 3 == 0) {
            if (shared_ptr == 0) {
                init_session(id);
            }
        }
        if (w % 3 == 1) {
            reset_session(id);
        }
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(racer, 1);
    racer(2);
    while (done < 2) {
        yield();
    }
}
`
	count := func(p *kivati.Program) int {
		rep, err := kivati.Run(p, kivati.Config{Seed: 6, MaxTicks: 400_000_000})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range rep.Violations {
			// The check-then-init race: a remote access interleaving a
			// shared_ptr AR whose first access is the NULL check.
			if v.Var == "shared_ptr" && v.First == kivati.Read {
				n++
			}
		}
		return n
	}
	intra, err := kivati.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := kivati.BuildWithAnalysis(src, kivati.Analysis{InterProcedural: true})
	if err != nil {
		t.Fatal(err)
	}
	// The intra-procedural build has no AR at all on shared_ptr in racer:
	// every write is hidden in a helper.
	for _, ar := range intra.ARs() {
		if ar.Func == "racer" && ar.Var == "shared_ptr" {
			t.Fatalf("intra build unexpectedly has a caller-level AR: %+v", ar)
		}
	}
	found := false
	for _, ar := range inter.ARs() {
		if ar.Func == "racer" && ar.Var == "shared_ptr" && ar.First == kivati.Read && ar.Second == kivati.Write {
			found = true
		}
	}
	if !found {
		t.Fatal("inter-procedural build lacks the caller-level R-W AR")
	}
	if n := count(inter); n == 0 {
		t.Error("inter-procedural build did not detect the helper-factored race at run time")
	}
}

// TestWhitelistPeriodicReload: a long-running process picks up a
// developer-shipped whitelist update mid-run (§3.2) — violations stop once
// the re-read delivers the new benign AR IDs.
func TestWhitelistPeriodicReload(t *testing.T) {
	p, err := kivati.Build(raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Learn the racy AR IDs from a throwaway run.
	probe, err := kivati.Run(p, kivati.Config{Seed: 2, MaxTicks: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Violations) == 0 {
		t.Skip("race did not manifest under this seed")
	}
	var update strings.Builder
	seen := map[int]bool{}
	for _, v := range probe.Violations {
		if !seen[v.ARID] {
			seen[v.ARID] = true
			fmt.Fprintf(&update, "%d\n", v.ARID)
		}
	}

	// The deployed whitelist starts empty; its source ships the update,
	// which only the periodic reload can deliver.
	wl := kivati.NewWhitelist()
	wl.Source = func() (io.Reader, error) { return strings.NewReader(update.String()), nil }

	rep, err := kivati.Run(p, kivati.Config{
		Opt:                  kivati.OptSyncVars,
		Whitelist:            wl,
		WhitelistReloadTicks: 20_000,
		Seed:                 2,
		MaxTicks:             100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.WhitelistSkips == 0 {
		t.Error("the reloaded whitelist never took effect")
	}
	if wl.Len() == 0 {
		t.Error("whitelist not reloaded from its source")
	}
	// Violations before the first reload are possible; after it they stop,
	// so the count must be well below the unwhitelisted run's.
	if len(rep.Violations) >= len(probe.Violations) {
		t.Errorf("reload ineffective: %d violations vs %d without whitelist",
			len(rep.Violations), len(probe.Violations))
	}
}

// TestRunTrapBefore: Config.TrapBefore reaches the run, so kivati.Run under
// before-access traps matches core.Run under the same configuration.
func TestRunTrapBefore(t *testing.T) {
	src := workloads.NSS(0.02).Source
	p, err := kivati.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := kivati.Run(p, kivati.Config{Seed: 1, TrapBefore: true})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(cp, core.RunConfig{Seed: 1, TrapBefore: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ticks != want.Ticks || !reflect.DeepEqual(rep.Stats, want.Stats) {
		t.Errorf("kivati.Run: %d ticks, %d traps; core.Run: %d ticks, %d traps",
			rep.Ticks, rep.Stats.Traps, want.Ticks, want.Stats.Traps)
	}
}
