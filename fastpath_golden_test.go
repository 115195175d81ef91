package kivati_test

// Fast-tier telemetry golden test: the differential gates compare the fast
// tier with the reference interpreter on outcomes only (Stats, output,
// memory). This test pins the fast tier's own accounting as well — window
// and instruction counts, demotions by reason, decision points, same-pick
// continuations (always 0) and delta/full register adoptions — over the
// bug fixtures and the bench-suite applications, so a change meant only to
// restructure the VM's loops cannot silently move a counter.

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"kivati/internal/bugs"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

const fastGolden = "testdata/fastpath_golden.txt"

// goldenQuantum is the short preemption quantum of the policy-driven runs,
// inside the exploration engine's range of quanta.
const goldenQuantum = 23

// goldenSubject is one program of the golden corpus.
type goldenSubject struct {
	name   string
	source string
	starts []core.Start
	reqs   *vm.RequestConfig
	vars   []string
}

func goldenSubjects() []goldenSubject {
	var subs []goldenSubject
	for _, b := range bugs.Corpus() {
		subs = append(subs, goldenSubject{
			name: b.App + "-" + b.ID, source: b.ExploreSource, vars: b.SnapshotVars,
		})
	}
	for _, spec := range workloads.BenchSuite(diffScale) {
		subs = append(subs, goldenSubject{
			name: spec.Name, source: spec.Source, starts: spec.Starts, reqs: spec.Requests,
		})
	}
	return subs
}

// goldenScheduler is a schedule policy (nil: the seeded built-in
// scheduler) and its quantum (0: the default).
type goldenScheduler struct {
	name    string
	policy  vm.SchedulePolicy
	quantum uint64
}

// goldenSchedulers are the seeded scheduler at the default quantum and the
// always-head and always-tail policies at goldenQuantum.
var goldenSchedulers = []goldenScheduler{
	{"seeded", nil, 0},
	{"head", vm.PolicyFunc(func(vm.SchedPoint) int { return 0 }), goldenQuantum},
	{"tail", vm.PolicyFunc(func(sp vm.SchedPoint) int { return len(sp.Runnable) - 1 }), goldenQuantum},
}

// goldenLine runs one configuration under the fast tier and renders its
// telemetry: a short hash of the kernel stats, then every fast-tier counter.
func goldenLine(t *testing.T, p *core.Program, s goldenSubject, cores int, vanilla bool, sc goldenScheduler) string {
	t.Helper()
	cfg := core.RunConfig{
		Vanilla:      vanilla,
		Cores:        cores,
		Seed:         1,
		MaxTicks:     2_000_000,
		Starts:       s.starts,
		SnapshotVars: s.vars,
		Policy:       sc.policy,
		HashMemory:   true,
	}
	if !vanilla {
		cfg.Mode = kernel.Prevention
		cfg.Opt = kernel.OptBase
	}
	if sc.quantum != 0 {
		cfg.Costs = vm.DefaultCosts()
		cfg.Costs.Quantum = sc.quantum
	}
	if s.reqs != nil {
		r := *s.reqs
		cfg.Requests = &r
	}
	mode := "prevention"
	if vanilla {
		mode = "vanilla"
	}
	name := fmt.Sprintf("%s cores=%d %s %s", s.name, cores, mode, sc.name)
	res, err := core.Run(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v", *res.Stats)
	d := res.Demotions
	return fmt.Sprintf("%s stats=%x ticks=%d mem=%x fast=%d windows=%d dem=%d/%d/%d/%d/%d decisions=%d same=%d delta=%d full=%d",
		name, h.Sum(nil)[:8], res.Ticks, res.MemHash, res.FastInstructions, res.FastWindows,
		d.ArmedOverlap, d.Unbounded, d.CheckedOverlap, d.TimerEdge, d.WouldTrap,
		res.Decisions, res.SamePickContinues, res.DeltaArms, res.FullArms)
}

func goldenLines(t *testing.T) []string {
	var lines []string
	for _, s := range goldenSubjects() {
		p, err := core.Build(s.source)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, cores := range []int{1, 2} {
			for _, vanilla := range []bool{true, false} {
				for _, sc := range goldenSchedulers {
					lines = append(lines, goldenLine(t, p, s, cores, vanilla, sc))
				}
			}
		}
	}
	return lines
}

// TestFastTierTelemetryUnchanged compares every run's telemetry line with
// testdata/fastpath_golden.txt. Edit the file only for a change that is
// meant to move the counters, and say why in the commit.
func TestFastTierTelemetryUnchanged(t *testing.T) {
	got := goldenLines(t)
	f, err := os.Open(fastGolden)
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
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("run %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d runs differ from %s", bad, len(got), fastGolden)
	}
}
