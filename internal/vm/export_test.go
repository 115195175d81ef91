package vm

import "kivati/internal/kernel"

// Test hooks for the external tests of this package.

// SkippedSpinCycles reports how many cycles the lone-spin skip has skipped
// on m since New.
func (m *Machine) SkippedSpinCycles() uint64 { return m.spinSkipped }

// SpinCounters returns the counters the lone-spin skip advances, and the
// kernel statistics and telemetry they must cover.
func (m *Machine) SpinCounters() (ctrs []*uint64, stats *kernel.Stats, tel *Telemetry) {
	return m.ctrs, m.Stats, &m.tel
}
