package harness

import (
	"fmt"
	"strings"

	"kivati/internal/bugs"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/pool"
	"kivati/internal/stats"
	"kivati/internal/trace"
)

// Table6Row is one bug's time-to-detection under the three configurations.
// Times are in ticks; Detected* report whether the bug manifested within the
// cap (the paper's "-" rows).
type Table6Row struct {
	App, ID      string
	PrevTicks    uint64
	PrevDetected bool
	Bug20Ticks   uint64
	Bug20Found   bool
	Bug50Ticks   uint64
	Bug50Found   bool

	PaperPrev, Paper20, Paper50 string
}

// detection is one detect run's outcome: when the bug manifested, if it did.
type detection struct {
	when  uint64
	found bool
}

// RunTable6 measures how long Kivati takes to detect (and prevent) each of
// the 11 corpus bugs, in prevention mode and bug-finding mode with 20 ms and
// 50 ms pauses. Each run stops at the first violation on a bug variable or
// at the 90-scaled-minute cap. The 33 detect runs (11 bugs x 3
// configurations) fan out across the pool; each bug's program builds once
// through the build cache and is shared by its three runs.
func RunTable6(o Options) ([]Table6Row, error) {
	o = o.defaults()
	corpus := bugs.Corpus()

	var jobs []func() (detection, error)
	for bi, b := range corpus {
		bugVars := map[string]bool{}
		for _, v := range b.BugVars {
			bugVars[v] = true
		}
		detect := func(mode kernel.Mode, pause uint64) (detection, error) {
			p, err := sharedCache.program("bug:"+b.App+"/"+b.ID, b.Source)
			if err != nil {
				return detection{}, fmt.Errorf("harness: bug %s %s: %w", b.App, b.ID, err)
			}
			var d detection
			cfg := core.RunConfig{
				Mode:           mode,
				Opt:            kernel.OptBase,
				NumWatchpoints: o.Watchpoints,
				Cores:          o.Cores,
				Seed:           o.Seed + int64(bi)*13,
				MaxTicks:       DetectionCapTicks,
				TimeoutTicks:   TimeoutTicks,
				PauseTicks:     pause,
				PauseEvery:     BugPauseEvery,
				Starts:         b.Starts(),
				OnViolation: func(v trace.Violation) bool {
					if bugVars[v.Var] {
						d.when = v.Tick
						d.found = true
						return true
					}
					return false
				},
			}
			if _, err := core.Run(p, cfg); err != nil {
				return detection{}, fmt.Errorf("harness: bug %s %s: %w", b.App, b.ID, err)
			}
			return d, nil
		}
		for _, run := range []struct {
			mode  kernel.Mode
			pause uint64
		}{{kernel.Prevention, 0}, {kernel.BugFinding, Pause20}, {kernel.BugFinding, Pause50}} {
			jobs = append(jobs, func() (detection, error) {
				return detect(run.mode, run.pause)
			})
		}
	}
	results, err := pool.Run(pool.Workers(o.Parallelism), jobs)
	if err != nil {
		return nil, err
	}

	var out []Table6Row
	for bi, b := range corpus {
		prev, bug20, bug50 := results[bi*3], results[bi*3+1], results[bi*3+2]
		out = append(out, Table6Row{
			App: b.App, ID: b.ID,
			PrevTicks: prev.when, PrevDetected: prev.found,
			Bug20Ticks: bug20.when, Bug20Found: bug20.found,
			Bug50Ticks: bug50.when, Bug50Found: bug50.found,
			PaperPrev: b.PaperPrev, Paper20: b.Paper20, Paper50: b.Paper50,
		})
	}
	return out, nil
}

// scaledMMSS renders a tick count as scaled minutes:seconds (Table 6 units).
func scaledMMSS(ticks uint64, found bool) string {
	if !found {
		return "-"
	}
	return stats.FormatMMSS(float64(ticks) / PaperSecondTicks)
}

// FormatTable6 renders the detection-time rows next to the paper's values.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6. Time to detect+prevent each bug (scaled m:ss; '-' = no manifestation)\n")
	fmt.Fprintf(&b, "%-8s %-8s | %9s %9s %9s | paper: %7s %7s %7s\n",
		"App", "Bug ID", "Prev", "Bug(20ms)", "Bug(50ms)", "Prev", "20ms", "50ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s | %9s %9s %9s | %14s %7s %7s\n",
			r.App, r.ID,
			scaledMMSS(r.PrevTicks, r.PrevDetected),
			scaledMMSS(r.Bug20Ticks, r.Bug20Found),
			scaledMMSS(r.Bug50Ticks, r.Bug50Found),
			r.PaperPrev, r.Paper20, r.Paper50)
	}
	return b.String()
}
