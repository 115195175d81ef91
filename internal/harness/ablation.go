package harness

import (
	"fmt"
	"strings"

	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/kernel"
	"kivati/internal/pool"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// AblationRow compares, for one application, the paper's dynamic
// whitelist-training pipeline against the static lockset pipeline: AR table
// sizes and prevention-mode cost with and without the annotation optimizer,
// and residual false positives under the trained versus the static
// whitelist.
type AblationRow struct {
	App string

	// Static annotation effect.
	BaseARs   int // AR table size, paper-prototype annotator
	OptARs    int // AR table size with the optimizer
	Benign    int // ARs dropped via lockset serializability proofs
	Deduped   int // ARs dropped as covered by sub-regions
	Coalesced int // ARs removed by merging chains

	// Prevention-mode cost at OptBase (no whitelist: every AR arms).
	BaseKps   float64 // kernel crossings, thousands per virtual second
	OptKps    float64
	BaseArmed uint64 // begin_atomic arms over the run (monitored + missed)
	OptArmed  uint64

	// Whitelists: Figure 7 training versus the compile-time lockset proof.
	TrainedFPs     []int // new FPs per training iteration
	TrainedFPSum   int   // total FPs surfaced by training
	TrainedWLSize  int
	TrainedResidFP int // unique violated ARs under the trained whitelist
	StaticWLSize   int
	StaticFP       int // unique violated ARs under the static whitelist
}

// RunAblation runs the trained-vs-static whitelist ablation over the
// performance suite. Per app: (1) base and optimizer builds race prevention
// mode at OptBase to expose the optimizer's effect on armed ARs and kernel
// crossings; (2) a Figure 7 training campaign (prevention mode, OptOptimized)
// surfaces false positives for `iterations` runs; (3) one run each under the
// trained and the static (lockset-proof) whitelist counts residual false
// positives. Campaigns are sequential per app, so the pool parallelizes
// across apps.
func RunAblation(o Options, iterations int) ([]AblationRow, error) {
	o = o.defaults()
	if iterations <= 0 {
		iterations = 10
	}
	specs := workloads.PerfSuite(workloads.Scale(o.Scale))

	baseOpts := annotate.Options{Lockset: true}
	optOpts := annotate.Options{
		Lockset: true,
		Optimize: annotate.OptimizeOptions{
			DropBenign: true,
			Dedupe:     true,
			Coalesce:   true,
		},
	}

	jobs := make([]func() (AblationRow, error), 0, len(specs))
	for _, spec := range specs {
		jobs = append(jobs, func() (AblationRow, error) {
			row := AblationRow{App: spec.Name}
			base, err := sharedCache.prepareWithOptions(spec, baseOpts)
			if err != nil {
				return row, err
			}
			optz, err := sharedCache.prepareWithOptions(spec, optOpts)
			if err != nil {
				return row, err
			}
			row.BaseARs = len(base.prog.Annotated.ARs)
			row.OptARs = len(optz.prog.Annotated.ARs)
			os := optz.prog.Annotated.OptStats
			row.Benign, row.Deduped, row.Coalesced = os.Benign, os.Deduped, os.Coalesced

			kps := func(res *vm.Result) float64 {
				secs := float64(res.Ticks) / 1e6
				return float64(res.Stats.KernelEntries()) / secs / 1e3
			}
			armed := func(res *vm.Result) uint64 {
				return res.Stats.MonitoredARs + res.Stats.MissedARs
			}
			res, err := base.run(base.config(o, kernel.Prevention, kernel.OptBase, false))
			if err != nil {
				return row, err
			}
			row.BaseKps, row.BaseArmed = kps(res), armed(res)
			res, err = optz.run(optz.config(o, kernel.Prevention, kernel.OptBase, false))
			if err != nil {
				return row, err
			}
			row.OptKps, row.OptArmed = kps(res), armed(res)

			// Figure 7 training on the base build.
			cfg := base.config(o, kernel.Prevention, kernel.OptOptimized, false)
			tr, err := core.Train(base.prog, cfg, iterations, nil)
			if err != nil {
				return row, err
			}
			row.TrainedFPs = tr.NewFPs
			for _, n := range tr.NewFPs {
				row.TrainedFPSum += n
			}
			row.TrainedWLSize = len(tr.Whitelist.IDs())

			// Residual false positives: unique violated ARs in one run under
			// each whitelist. Like Table 7, a violation is the datum — runs
			// that stop early still count.
			countFP := func(wl *core.RunConfig) (int, error) {
				res, err := core.Run(base.prog, *wl)
				if err != nil {
					return 0, err
				}
				unique := map[int]bool{}
				for _, v := range res.Violations {
					unique[v.ARID] = true
				}
				return len(unique), nil
			}
			trainedCfg := base.config(o, kernel.Prevention, kernel.OptOptimized, false)
			trainedCfg.Whitelist = tr.Whitelist
			if row.TrainedResidFP, err = countFP(&trainedCfg); err != nil {
				return row, err
			}
			staticWL, err := base.prog.StaticWhitelist(spec.FlagVars...)
			if err != nil {
				return row, err
			}
			row.StaticWLSize = len(staticWL.IDs())
			staticCfg := base.config(o, kernel.Prevention, kernel.OptOptimized, false)
			staticCfg.Whitelist = staticWL
			if row.StaticFP, err = countFP(&staticCfg); err != nil {
				return row, err
			}
			return row, nil
		})
	}
	return pool.Run(pool.Workers(o.Parallelism), jobs)
}

// FormatAblation renders the ablation rows.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: trained vs. static (lockset) whitelist, and the annotation optimizer\n")
	fmt.Fprintf(&b, "%-10s | %5s %5s %-16s | %9s %9s | %9s %9s\n",
		"App", "ARs", "ARs'", "(-ben/-dup/-coal)", "Kcross/s", "Kcross'/s", "armed", "armed'")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %5d %5d %-16s | %9.0f %9.0f | %9d %9d\n",
			r.App, r.BaseARs, r.OptARs,
			fmt.Sprintf("(-%d/-%d/-%d)", r.Benign, r.Deduped, r.Coalesced),
			r.BaseKps, r.OptKps, r.BaseArmed, r.OptArmed)
	}
	fmt.Fprintf(&b, "\n%-10s | %7s %7s %7s | %7s %7s %7s\n",
		"App", "trainFP", "wl", "residFP", "static", "wl", "FP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %7d %7d %7d | %7s %7d %7d   iters=%v\n",
			r.App, r.TrainedFPSum, r.TrainedWLSize, r.TrainedResidFP,
			"", r.StaticWLSize, r.StaticFP, r.TrainedFPs)
	}
	return b.String()
}
