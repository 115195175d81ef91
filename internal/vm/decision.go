package vm

// Decision-point fast path: the helpers that make the cost of a scheduler
// decision proportional to what changed rather than to the size of the
// armed-watchpoint table.
//
// Two mechanisms cooperate (see DESIGN.md "Decision-point fast path"):
//
//   - Watchpoint delta-arming. Every kernel entry must leave the core's
//     register file synchronized with the kernel's canonical state. The
//     canonical file stamps each register with a generation counter, so
//     adoption applies only the registers that changed since this core last
//     synchronized — at a timer interrupt under a quiescent watchpoint table
//     (the overwhelmingly common case) that is a single counter comparison.
//     The full-table copy survives as the slow path and as the differential
//     reference.
//
//   - Block-decision continuation. A block-edge decision (checked or
//     unchecked; see enterBlock) is stamped with the thread it was made for
//     and the register file's mutation count at decision time. Window
//     admission keeps the open decision when both still match, instead of
//     unconditionally re-deciding. On one core the Run loop defers a fresh
//     pick to a window opened at the same clock, so a policy that re-picks
//     the preempted thread continues its open block.

// adoptCanon synchronizes core c's watchpoint register file with the
// kernel's canonical state via delta-arming, returning how many registers
// actually changed so callers can distinguish a no-op adoption from a real
// update. It is the single chokepoint for every cross-core propagation site
// (timer interrupts, syscalls, traps, idle adoption, EpochChanged).
func (m *Machine) adoptCanon(c *Core) int {
	changed, full := c.WP.AdoptDelta(m.K.Canon)
	if full {
		m.tel.FullArms++
	} else {
		m.tel.DeltaArms++
	}
	return changed
}

// resumeOrResetFast decides, at a superstep-window boundary, whether core
// c's open block decision is still valid: same thread, register file
// unmutated since the decision was made, and no DPOR segment recording
// (enterBlock folds each block's footprint into the segment open at its
// entry, so a segment needs fresh block entries).
// A kept decision means the first block of the new window retires without a
// fresh register-file scan — the same-pick continuation. The stamp and the
// fast fields are part of snapshots, so a run resumed from a mid-decision
// snapshot makes the identical keep/reset choice the continuous run made.
func (m *Machine) resumeOrResetFast(c *Core) {
	// The evaluated footprint belongs to the window that evaluated it.
	c.fpInMem = false
	if c.fastLeft > 0 && c.Cur != nil && c.Cur.ID == c.fastDecTID &&
		c.WP.Muts() == c.fastDecMuts && !m.segRecording() {
		m.tel.SamePickContinues++
		return
	}
	c.dropBlock()
}
