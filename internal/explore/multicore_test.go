package explore

import (
	"fmt"
	"testing"

	"kivati/internal/bugs"
)

// TestMultiCorePrevention is the multi-core prevention gate: on every bug
// of the Table 6 corpus, prevention mode must diverge from the program's
// one-core serial reference on no schedule — random exploration at 2 and 3
// cores and DFS at 2 cores. On more than one core a committed remote write
// can meet another core's epoch wait in the same tick, which is where
// waking waiters before the trap handler's undo let the woken thread
// record the remote value as its rollback value.
func TestMultiCorePrevention(t *testing.T) {
	n := corpusSchedules(t)
	configs := []Options{
		{Strategy: Random, Schedules: n, Seed: 1, Cores: 2},
		{Strategy: Random, Schedules: n, Seed: 1, Cores: 3},
		{Strategy: DFS, Schedules: n, Seed: 1, Cores: 2},
	}
	for _, opts := range configs {
		for _, b := range bugs.Corpus() {
			b := b
			opts := opts
			t.Run(fmt.Sprintf("%s/cores%d/%s_%s", opts.Strategy, opts.Cores, b.App, b.ID), func(t *testing.T) {
				t.Parallel()
				subject, err := BugSubject(b)
				if err != nil {
					t.Fatal(err)
				}
				d, err := Differential(subject, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d.VanillaDivergences() == 0 {
					t.Errorf("vanilla: 0/%d schedules diverged; the bug never manifested", len(d.Vanilla.Runs))
				}
				if got := d.PreventionDivergences(); got != 0 {
					t.Errorf("prevention: %d/%d schedules diverged from serial", got, len(d.Prevention.Runs))
				}
			})
		}
	}
}
