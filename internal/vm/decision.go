package vm

// Decision-point fast path: the helpers that make the cost of a scheduler
// decision proportional to what changed rather than to the size of the
// armed-watchpoint table.
//
// Two mechanisms cooperate (see DESIGN.md "Decision-point fast path"):
//
//   - Watchpoint adoption. Every kernel entry must leave the core's register
//     file synchronized with the kernel's canonical state. A core whose file
//     already carries the canonical mutation count keeps its registers — at
//     a timer interrupt under a quiescent watchpoint table (the
//     overwhelmingly common case) that is a single counter comparison — and
//     any other core copies the whole file.
//
//   - Block-decision continuation. A block-edge decision (checked or
//     unchecked; see enterBlock) is stamped with the thread it was made for
//     and the register file's mutation count at decision time. Window
//     admission keeps the open decision when both still match, instead of
//     unconditionally re-deciding. On one core the Run loop defers a fresh
//     pick to a window opened at the same clock, so a policy that re-picks
//     the preempted thread continues its open block.

// adoptCanon synchronizes core c's watchpoint register file with the
// kernel's canonical state. It is the single chokepoint for every
// cross-core propagation site (timer interrupts, syscalls, traps, idle
// adoption, EpochChanged).
func (m *Machine) adoptCanon(c *Core) {
	if c.WP.Adopt(m.K.Canon) {
		m.tel.FullArms++
	} else {
		m.tel.DeltaArms++
	}
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
