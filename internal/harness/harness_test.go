package harness

import (
	"strings"
	"testing"

	"kivati/internal/kernel"
	"kivati/internal/stats"
	"kivati/internal/workloads"
)

// The harness tests assert the *shapes* the paper reports, at a reduced
// scale so the suite stays fast; EXPERIMENTS.md records a full-scale run.

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1()
	for _, want := range []string{"x86", "SPARC", "MIPS", "ARM", "PowerPC", "After", "Before"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ListsAllApps(t *testing.T) {
	out := Table2(Options{Scale: 0.05})
	for _, app := range []string{"NSS", "VLC", "Webstone", "TPC-W", "SPEC OMP"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table 2 missing %s", app)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := RunTable3(Options{Scale: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	gm := res.GeoMean
	// Optimized must beat Base on the geometric mean (the paper's headline
	// 30% -> 19%).
	if gm.Optimized.PrevPct >= gm.Base.PrevPct {
		t.Errorf("optimized geomean %.1f%% not below base %.1f%%",
			gm.Optimized.PrevPct, gm.Base.PrevPct)
	}
	// Null syscall isolates crossing cost: at or below Base.
	if gm.NullSyscall.PrevPct > gm.Base.PrevPct*1.15 {
		t.Errorf("null-syscall geomean %.1f%% above base %.1f%%",
			gm.NullSyscall.PrevPct, gm.Base.PrevPct)
	}
	// Every overhead is positive: Kivati never speeds a program up.
	for _, row := range res.Rows {
		for _, c := range []Table3Cell{row.Base, row.NullSyscall, row.SyncVars, row.Optimized} {
			if c.PrevPct < -5 || c.BugPct < -5 {
				t.Errorf("%s: negative overhead %+v", row.App, c)
			}
		}
	}
	// The formatter includes every app and the summary row.
	out := res.String()
	if !strings.Contains(out, "geo. mean") {
		t.Error("missing geo. mean row")
	}
}

func TestTable4Shape(t *testing.T) {
	res, err := RunTable4(Options{Scale: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.BaseKps <= 0 {
			t.Errorf("%s: no kernel crossings in base mode", row.App)
		}
		if row.OptKps >= row.BaseKps {
			t.Errorf("%s: optimized crossings (%f) not below base (%f)",
				row.App, row.OptKps, row.BaseKps)
		}
		// SyncVars removes whitelisted crossings, but the rate is
		// normalized by a runtime that also shifts; allow slack.
		if row.SyncVarsKps > row.BaseKps*1.2 {
			t.Errorf("%s: syncvars crossing rate (%f) well above base (%f)",
				row.App, row.SyncVarsKps, row.BaseKps)
		}
	}
	if res.AvgReduction <= 20 {
		t.Errorf("average reduction %.0f%%: optimizations barely help", res.AvgReduction)
	}
	if !strings.Contains(res.String(), "average reduction") {
		t.Error("formatter missing summary")
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := RunTable5(Options{Scale: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("server rows = %d, want 2 (Webstone, TPC-W)", len(rows))
	}
	for _, r := range rows {
		if r.NumRequests == 0 {
			t.Errorf("%s: no requests measured", r.App)
		}
		if r.Vanilla <= 0 {
			t.Errorf("%s: no vanilla latency", r.App)
		}
		// Kivati increases latency (slightly).
		if r.PrevPct < -10 {
			t.Errorf("%s: prevention reduced latency by %f%%", r.App, r.PrevPct)
		}
	}
	if !strings.Contains(FormatTable5(rows), "Webstone") {
		t.Error("formatter missing app")
	}
}

// TestTable5Percentiles reruns each Table 5 configuration (runs are
// deterministic) and checks that the row's p50/p99 are stats.Percentile of
// that run's request latencies.
func TestTable5Percentiles(t *testing.T) {
	o := Options{Scale: 0.15, Seed: 1}
	rows, err := RunTable5(o)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table5Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	for _, spec := range workloads.PerfSuite(workloads.Scale(o.Scale)) {
		if !spec.Server {
			continue
		}
		r, ok := byApp[spec.Name]
		if !ok {
			t.Fatalf("no Table 5 row for %s", spec.Name)
		}
		for _, c := range []struct {
			name     string
			mode     kernel.Mode
			vanilla  bool
			p50, p99 uint64
		}{
			{"vanilla", kernel.Prevention, true, r.VanillaP50, r.VanillaP99},
			{"prevention", kernel.Prevention, false, r.PreventionP50, r.PreventionP99},
			{"bug-finding", kernel.BugFinding, false, r.BugFindingP50, r.BugFindingP99},
		} {
			res, err := runSpec(o.defaults(), spec, c.mode, kernel.OptOptimized, c.vanilla)
			if err != nil {
				t.Fatal(err)
			}
			p50, p99 := stats.Percentile(res.Latencies, 50), stats.Percentile(res.Latencies, 99)
			if c.p50 != p50 || c.p99 != p99 {
				t.Errorf("%s %s: row p50/p99 = %d/%d, latencies give %d/%d", spec.Name, c.name, c.p50, c.p99, p50, p99)
			}
			if p50 == 0 || p50 > p99 {
				t.Errorf("%s %s: p50 %d, p99 %d: want 0 < p50 <= p99", spec.Name, c.name, p50, p99)
			}
		}
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := RunTable6(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("bug rows = %d, want 11", len(rows))
	}
	bugFound, prevMissedButBugFound := 0, 0
	for _, r := range rows {
		if r.Bug20Found {
			bugFound++
		}
		if !r.PrevDetected && r.Bug20Found {
			prevMissedButBugFound++
		}
		// Bug-finding never loses to prevention by more than noise: when
		// both detect, bug-finding is usually faster; require it within
		// 2x in the worst case.
		if r.PrevDetected && r.Bug20Found && r.Bug20Ticks > 2*r.PrevTicks+1_000_000 {
			t.Errorf("%s %s: bug-finding (%d) much slower than prevention (%d)",
				r.App, r.ID, r.Bug20Ticks, r.PrevTicks)
		}
	}
	if bugFound < 10 {
		t.Errorf("bug-finding mode found only %d/11 bugs", bugFound)
	}
	// The paper's key qualitative result: bugs that never manifest in
	// prevention mode are found by bug-finding mode.
	if prevMissedButBugFound == 0 {
		t.Error("no bug was exclusive to bug-finding mode (the paper's '-' rows)")
	}
	out := FormatTable6(rows)
	if !strings.Contains(out, "44402") || !strings.Contains(out, "25306") {
		t.Error("formatter missing bug IDs")
	}
}

func TestTable7Shape(t *testing.T) {
	rows, err := RunTable7(Options{Scale: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	totalFP, totalTraps := 0, 0.0
	for _, r := range rows {
		totalFP += r.PrevFP
		totalTraps += r.PrevTraps
		if r.BugFP < 0 || r.PrevFP < 0 {
			t.Errorf("%s: negative FP", r.App)
		}
	}
	if totalFP == 0 {
		t.Error("no false positives across the suite; benign-violation sources inert")
	}
	if totalTraps == 0 {
		t.Error("no watchpoint traps across the suite")
	}
}

func TestTable8And9Shape(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 1}
	t8, err := RunTable8(o)
	if err != nil {
		t.Fatal(err)
	}
	anyMissed := false
	for _, r := range t8 {
		if r.PrevPct > 0 {
			anyMissed = true
		}
		if r.PrevPct > 75 {
			t.Errorf("%s: %.0f%% missed ARs — watchpoint pressure unrealistic", r.App, r.PrevPct)
		}
	}
	if !anyMissed {
		t.Error("no app misses any ARs at 4 watchpoints; Table 8 is degenerate")
	}

	t9, err := RunTable9(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range t9.Apps {
		pcts := t9.Pct[app]
		// Monotone-ish decrease: last < first, and converges to 0 by 12.
		if pcts[len(pcts)-1] != 0 {
			t.Errorf("%s: %.2f%% ARs still missed with 12 watchpoints", app, pcts[len(pcts)-1])
		}
		if pcts[0] <= pcts[len(pcts)-1] {
			t.Errorf("%s: missed ARs do not decrease with more watchpoints: %v", app, pcts)
		}
	}
	if !strings.Contains(t9.String(), "12") {
		t.Error("Table 9 formatter missing counts")
	}
}

func TestFigure7Shape(t *testing.T) {
	rs, err := RunFigure7(Options{Scale: 0.5, Seed: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("apps = %d", len(rs))
	}
	totalFirst, totalLast := 0, 0
	for _, r := range rs {
		if len(r.Prevention) != 5 || len(r.BugFinding) != 5 {
			t.Fatalf("%s: wrong iteration counts", r.App)
		}
		totalFirst += r.Prevention[0] + r.BugFinding[0]
		totalLast += r.Prevention[4] + r.BugFinding[4]
	}
	// Training converges: far fewer new FPs in the last iteration than the
	// first.
	if totalFirst == 0 {
		t.Error("training found nothing in iteration 1")
	}
	if totalLast >= totalFirst {
		t.Errorf("training did not converge: first=%d last=%d", totalFirst, totalLast)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.defaults()
	if o.Scale == 0 || o.Seed == 0 {
		t.Errorf("defaults incomplete: %+v", o)
	}
}
