package harness

// Residency golden test: every bench-suite application under vanilla and
// under prevention with all optimizations, at the harness defaults. Each
// row pins the run's virtual-clock accounting — instructions, fast-tier
// instructions, kernel crossings, ticks, demotions by reason, decision
// points, same-pick continuations and delta/full arms — so fast-tier
// residency cannot drop without the change showing here. The vanilla rows
// also pin crossings=0: a watchpoint-free run never enters the kernel.

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"kivati/internal/kernel"
	"kivati/internal/workloads"
)

const residencyGolden = "testdata/residency_golden.txt"

// residencyLines runs the golden matrix and renders one line per run.
func residencyLines(t *testing.T) []string {
	t.Helper()
	o := Options{}.defaults()
	var lines []string
	for _, spec := range workloads.BenchSuite(workloads.Scale(o.Scale)) {
		a, err := sharedCache.prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			opt     kernel.OptLevel
			vanilla bool
		}{
			{"vanilla", kernel.OptBase, true},
			{"prevention-optimized", kernel.OptOptimized, false},
		} {
			res, err := a.run(a.config(o, kernel.Prevention, c.opt, c.vanilla))
			if err != nil {
				t.Fatal(err)
			}
			d := res.Demotions
			lines = append(lines, fmt.Sprintf("%s %s instr=%d fast=%d crossings=%d ticks=%d dem=%d/%d/%d/%d/%d decisions=%d same=%d delta=%d full=%d",
				spec.Name, c.name, res.Stats.Instructions, res.FastInstructions,
				res.Stats.KernelEntries(), res.Ticks,
				d.ArmedOverlap, d.Unbounded, d.CheckedOverlap, d.TimerEdge, d.WouldTrap,
				res.Decisions, res.SamePickContinues, res.DeltaArms, res.FullArms))
		}
	}
	return lines
}

// TestResidencyGolden compares every run's line with
// testdata/residency_golden.txt. Edit the file only for a change that is
// meant to move the counters, and say why in the commit.
func TestResidencyGolden(t *testing.T) {
	got := residencyLines(t)
	f, err := os.Open(residencyGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// The array-indexing acceptance row: ArrayScan's inner loops index fixed
// arrays through computed registers, which demoted every such block as
// Unbounded before the value-range footprint analysis. Under prevention
// with all optimizations the workload must now stay on the fast path with
// zero Unbounded demotions.
func TestArrayScanPreventionResidency(t *testing.T) {
	o := Options{}.defaults()
	spec := workloads.ArrayScan(workloads.Scale(o.Scale))
	a, err := sharedCache.prepare(spec)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	res, err := a.run(a.config(o, kernel.Prevention, kernel.OptOptimized, false))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.Begins == 0 {
		t.Fatal("no atomic regions began; prevention was not exercised")
	}
	if res.Demotions.Unbounded != 0 {
		t.Errorf("Demotions.Unbounded = %d, want 0 (demotions: %+v)",
			res.Demotions.Unbounded, res.Demotions)
	}
	if res.Stats.Instructions == 0 {
		t.Fatal("no instructions executed")
	}
	resid := 100 * float64(res.FastInstructions) / float64(res.Stats.Instructions)
	if resid < 90 {
		t.Errorf("prevention-optimized fast residency = %.1f%%, want >= 90%%", resid)
	}
}
