package vm

import (
	"kivati/internal/hw"
	"kivati/internal/isa"
)

// This file implements the tiered-execution fast path: basic-block
// superstep dispatch over the pre-decoded instruction stream.
//
// The paper's performance argument (§5) is that the non-AR common case —
// no watchpoint armed anywhere — must be nearly free. The legacy Run loop
// pays full per-instruction freight for that case: a scheduler visit, a
// timer comparison, an event-heap peek and a clock-advance computation per
// retired instruction. The superstep collapses all of it: when no kernel
// activity is due and no scheduling decision can arise, the machine
// computes the largest window [clock, bound) in which the legacy loop
// provably does nothing but retire straight-line instructions, executes
// the whole window in a tight lockstep loop, and charges cost in bulk.
//
// Armed watchpoints do not end the window. At every basic-block edge the
// dispatcher compares the block's static address footprint (compile-time
// table, evaluated against the thread's live SP/FP) with the core's armed
// registers: a provably disjoint block retires unchecked exactly as in the
// vanilla case, and an overlapping or unbounded block retires in *checked*
// mode, where each access is pre-checked against the register file before
// committing — an access that would trap bails out pre-commit and replays
// on the legacy path, which records it and delivers the trap. Everything
// observable — event delivery, timer interrupts, scheduling decisions,
// traps, rng consumption, per-thread instruction ticks — happens at
// exactly the clock values the legacy loop would have used, so execution
// is bit-identical (the differential gate in fastpath_test.go holds the
// interpreter to that).

// buildBlockLen precomputes, for every instruction start, how many
// instructions the fast path may retire beginning there without leaving
// straight-line code: 0 for pcs the fast path must not enter (SYS and HLT
// need the kernel; non-starts are decode faults), 1 for control flow
// (the block ends but the instruction itself is fast-executable), and
// 1 + blockLen[next] otherwise. starts is the list of instruction-start
// pcs in ascending order; the walk is in reverse so each entry is O(1).
// compile.Footprints runs the same reverse walk, so footprint entry pc
// covers (a superset of) the blockLen[pc] instructions dispatched from pc.
func (m *Machine) buildBlockLen(starts []uint32) {
	m.blockLen = make([]uint16, len(m.decoded))
	m.execKind = make([]uint8, len(m.decoded))
	const maxLen = ^uint16(0)
	for i := len(starts) - 1; i >= 0; i-- {
		pc := starts[i]
		in := m.decoded[pc]
		m.execKind[pc] = execKindOf(in.Op)
		switch {
		case in.Op.IsKernelBoundary():
			// The legacy path must execute it.
		case in.Op.IsControlFlow():
			m.blockLen[pc] = 1
		default:
			n := uint16(1)
			if next := pc + uint32(in.Len); int(next) < len(m.blockLen) {
				if bl := m.blockLen[next]; bl < maxLen {
					n += bl
				} else {
					n = maxLen
				}
			}
			m.blockLen[pc] = n
		}
	}
}

// Fast-interpreter dispatch kinds: one dense small integer per instruction
// form, precomputed at decode time, so execFast dispatches through a jump
// table instead of re-classifying the opcode's ranges on every retirement.
// ekNone marks everything the fast path must refuse — kernel boundaries,
// non-starts, and ops only the legacy interpreter (which faults them)
// handles.
const (
	ekNone uint8 = iota
	ekNOP
	ekMOVI
	ekMOVR
	ekALU
	ekADDI
	ekLD
	ekST
	ekLDR
	ekSTR
	ekPUSH
	ekPOP
	ekPUSHM
	ekJMP
	ekJZ
	ekJNZ
	ekCALL
	ekCALLM
	ekRET
)

func execKindOf(op isa.Op) uint8 {
	switch {
	case op == isa.OpNOP:
		return ekNOP
	case op == isa.OpMOVQ || op == isa.OpMOVL:
		return ekMOVI
	case op == isa.OpMOVR:
		return ekMOVR
	case op >= isa.OpADD && op <= isa.OpCGE:
		return ekALU
	case op == isa.OpADDI:
		return ekADDI
	case op >= isa.OpLD && op < isa.OpLD+4:
		return ekLD
	case op >= isa.OpST && op < isa.OpST+4:
		return ekST
	case op >= isa.OpLDR && op < isa.OpLDR+4:
		return ekLDR
	case op >= isa.OpSTR && op < isa.OpSTR+4:
		return ekSTR
	case op == isa.OpPUSH:
		return ekPUSH
	case op == isa.OpPOP:
		return ekPOP
	case op >= isa.OpPUSHM && op < isa.OpPUSHM+4:
		return ekPUSHM
	case op == isa.OpJMP:
		return ekJMP
	case op == isa.OpJZ:
		return ekJZ
	case op == isa.OpJNZ:
		return ekJNZ
	case op == isa.OpCALL:
		return ekCALL
	case op == isa.OpCALLM:
		return ekCALLM
	case op == isa.OpRET:
		return ekRET
	}
	return ekNone
}

// trySuperstep retires one superstep window if the machine state admits
// one and reports whether it did; otherwise it returns false leaving all
// state untouched so the legacy loop handles the current clock. Demotion
// conditions (any one suffices):
//
//   - an event is due at the current clock;
//   - a running core has a timer interrupt due;
//   - a free core exists while the run queue is non-empty (a scheduling
//     decision, and under the built-in scheduler an rng consultation, is
//     due at this clock).
//
// Armed watchpoints and epoch/pause waiters no longer demote the window.
// Watchpoint state is frozen inside a window — register files change only
// on kernel entries (syscalls, traps, timer interrupts), none of which
// occur mid-window — so block-edge footprint decisions (see blockChecked)
// hold for the whole block, and the per-tick epoch-waiter checks the
// legacy loop would run are provably no-ops: minCoreEpoch cannot change
// mid-window, and time-based wakes arrive via events, which bound the
// window.
//
// The window bound is the earliest clock at which the legacy loop would do
// anything besides retire an instruction: a running core's next timer
// interrupt, a busy core's wake-up (it reschedules or resumes then), a
// free core's next idle timer reset, the next event, and MaxTicks.
func (m *Machine) trySuperstep() bool {
	if len(m.events) > 0 && m.events[0].tick <= m.clock {
		m.tel.Demotions.TimerEdge++
		return false
	}
	t0 := m.clock
	bound := ^uint64(0)
	active := m.fastCores[:0]
	for _, c := range m.cores {
		if c.BusyUntil > t0 {
			// Mid-cost (or mid-instruction) core: the legacy loop skips
			// it entirely until BusyUntil, where it reschedules, resumes
			// or has its timer checked — end the window there.
			if c.BusyUntil < bound {
				bound = c.BusyUntil
			}
			continue
		}
		if c.Cur != nil {
			if t0 >= c.NextTimer {
				m.tel.Demotions.TimerEdge++
				return false
			}
			if c.NextTimer < bound {
				bound = c.NextTimer
			}
			// A block decision left open by a previous window is kept only
			// when its stamp proves it still valid (same thread, register
			// file unmutated); otherwise the first block re-decides and any
			// leftover merge budget is dropped.
			m.resumeOrResetFast(c)
			active = append(active, c)
			continue
		}
		// Free core. If anything is runnable it schedules right now.
		if len(m.runq) > 0 {
			return false
		}
		nt := c.NextTimer
		if t0 >= nt {
			// The legacy loop would reset the idle core's timer at t0
			// (no interrupt is delivered with nothing running); mirror
			// it so the post-window timer phase is identical.
			nt = t0 + m.cfg.Costs.Quantum
			c.NextTimer = nt
		}
		if nt < bound {
			bound = nt
		}
	}
	m.fastCores = active
	if len(active) == 0 {
		return false
	}
	if len(m.events) > 0 && m.events[0].tick < bound {
		bound = m.events[0].tick
	}
	if m.cfg.MaxTicks > 0 && m.cfg.MaxTicks < bound {
		bound = m.cfg.MaxTicks
	}
	if bound <= t0 {
		return false
	}

	// Lockstep rounds: in the legacy loop every aligned running core
	// retires one instruction per Costs.Instr ticks, in core order within
	// the tick. Round k therefore executes at clock t0 + k*Instr; n is the
	// number of whole rounds that fit strictly before the bound.
	instr := m.cfg.Costs.Instr
	n := bound - t0
	if instr != 1 {
		n = (n + instr - 1) / instr
	}

	var rounds uint64
	stopIdx := 0
	stopped := false
	if len(active) == 1 {
		rounds = m.runFastSingle(active[0], n)
		stopped = rounds < n
	} else {
	loop:
		for k := uint64(0); k < n; k++ {
			for i, c := range active {
				if !m.stepFastBlock(c) {
					// Core i cannot proceed (kernel boundary, faulting
					// instruction, or a checked access that would trap):
					// in the legacy loop its round-k instruction commits
					// at t0+k*instr *after* the round-k instructions of
					// cores ordered before it, and *before* those of
					// cores ordered after it. So cores < i keep round k;
					// cores >= i replay it (and everything later) on the
					// legacy path.
					rounds, stopIdx, stopped = k, i, true
					break loop
				}
			}
		}
		if !stopped {
			rounds = n
		}
	}

	var total uint64
	for i, c := range active {
		cnt := rounds
		if stopped && i < stopIdx {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		// Bulk cost charge: identical to cnt legacy steps at Instr each.
		c.BusyUntil = t0 + cnt*instr
		total += cnt
	}
	if total == 0 {
		return false
	}
	m.Stats.Instructions += total
	m.tel.FastInstructions += total
	m.tel.FastWindows++
	return true
}

// fastMergeRun is the checked-block merge budget: after a fresh block-edge
// decision lands on checked, this many subsequent block edges in the same
// window inherit the decision instead of re-scanning the register file.
// Overlapping-footprint runs (tight loops over a watched array, call chains
// into watched frames) thus pay one decision per fastMergeRun+1 blocks.
// Inheriting checked is always sound — checked mode pre-checks every access
// exactly — so the only cost of a stale inheritance is per-access checks on
// a block that a fresh decision would have retired unchecked.
const fastMergeRun = 4

// enterBlock makes the block-edge decision for core c's thread at its
// current pc, the one place both window executors decide: the length of the
// straight-line run the decision covers (fastLeft), checked or unchecked
// execution — inherited through the merge budget after a checked decision,
// otherwise from a fresh blockChecked scan — and the stamp (thread, register
// file mutation count) that lets a later window keep the decision open (see
// resumeOrResetFast). It returns false, deciding nothing, when the pc is not
// fast-enterable: a kernel boundary or not an instruction start.
func (m *Machine) enterBlock(c *Core) bool {
	t := c.Cur
	pc := t.PC
	if !m.enterable(pc) {
		return false
	}
	c.fastLeft = m.blockLen[pc]
	c.fastDecTID = t.ID
	c.fastDecMuts = c.WP.Muts()
	if c.fastMerge > 0 {
		c.fastMerge--
		c.fastChecked = true
		m.tel.Demotions.CheckedOverlap++
	} else {
		c.fastChecked = m.blockChecked(c, t, pc)
		if c.fastChecked {
			c.fastMerge = fastMergeRun
		}
	}
	if m.segRecording() {
		m.segBlockFootprint(t, pc)
	}
	return true
}

// enterable reports whether the fast tier may start a block at pc: an
// instruction start that is not a kernel boundary.
func (m *Machine) enterable(pc uint32) bool {
	return int(pc) < len(m.blockLen) && m.blockLen[pc] != 0
}

// dropBlock abandons core c's open block decision and its merge budget, so
// the next window entry decides afresh.
func (c *Core) dropBlock() {
	c.fastLeft = 0
	c.fastMerge = 0
}

// stepFastBlock retires one instruction of core c's thread in the
// multi-core lockstep, deciding at each basic-block edge (fastLeft counts
// the instructions still covered by the current decision; trySuperstep
// drops it at window admission unless its stamp proves it still valid).
func (m *Machine) stepFastBlock(c *Core) bool {
	if c.fastLeft == 0 && !m.enterBlock(c) {
		return false
	}
	if !m.execFast(c, c.Cur, c.fastChecked) {
		c.dropBlock()
		return false
	}
	c.fastLeft--
	return true
}

// runFastSingle is the one-active-core window executor: it retires up to n
// instructions in blockLen-sized straight-line chunks, so both the "is
// this a kernel boundary" lookup and the checked/unchecked watchpoint
// decision are hoisted to block edges. The decision lives in the core's
// persistent fast fields (stamped for validity; see resumeOrResetFast), so
// a window that ends mid-block can hand its open decision to the next one.
// Returns the number of instructions retired.
func (m *Machine) runFastSingle(c *Core, n uint64) uint64 {
	t := c.Cur
	var done uint64
	for done < n {
		if c.fastLeft == 0 && !m.enterBlock(c) {
			return done
		}
		chunk := uint64(c.fastLeft)
		if chunk > n-done {
			chunk = n - done
		}
		for j := uint64(0); j < chunk; j++ {
			if !m.execFast(c, t, c.fastChecked) {
				c.dropBlock()
				return done + j
			}
		}
		c.fastLeft -= uint16(chunk)
		done += chunk
	}
	return done
}

// blockChecked decides, at a basic-block edge, whether the straight-line
// run starting at pc must execute with per-access watchpoint checks on
// core c. False — the common case — means the block's static footprint is
// provably disjoint from every armed register that could trap thread t, so
// execFast may commit every access unchecked (Match would return -1 for
// all of them). The stack components of the footprint are offsets from the
// block's entry SP/FP, evaluated here against the thread's live registers;
// an interval that escapes the 32-bit address space is answered
// conservatively.
func (m *Machine) blockChecked(c *Core, t *Thread, pc uint32) bool {
	if c.WP.ArmedCount() == 0 {
		return false
	}
	// Thread-relevant armed summary, cached per (thread, register-file
	// mutation count): when every armed register is exempt for this thread
	// (LocalOf — optimization 3), nothing the block does can trap, whatever
	// its footprint. The cached window also prefilters the bounded case
	// below without rescanning the register file at every block edge.
	rel, rlo, rhi := m.relevantWindow(c, t.ID)
	if rel == 0 {
		return false
	}
	f := &m.fps[pc]
	if f.Unbounded {
		// An access the analysis could not bound, and at least one armed
		// register is not exempt: checked.
		m.tel.Demotions.Unbounded++
		return true
	}
	// Assemble the footprint's components — absolute plus the SP/FP
	// intervals evaluated against the live registers — and test them against
	// the register file in one scan. A register-relative interval that
	// leaves [0, 2^32) after evaluation is answered conservatively (the
	// block's accesses would wrap or fault; the checked path sorts it out
	// exactly).
	var ranges [3]hw.AddrRange
	n := 0
	if f.AbsHi > f.AbsLo {
		ranges[n] = hw.AddrRange{Lo: f.AbsLo, Hi: f.AbsHi}
		n++
	}
	for _, rr := range [2]struct {
		base   int64
		lo, hi int64
	}{
		{t.Regs[isa.RegSP], f.SPLo, f.SPHi},
		{t.Regs[isa.RegFP], f.FPLo, f.FPHi},
	} {
		if rr.hi <= rr.lo {
			continue
		}
		lo64 := int64(uint32(rr.base)) + rr.lo
		hi64 := int64(uint32(rr.base)) + rr.hi
		if lo64 < 0 || hi64 > int64(^uint32(0)) {
			m.tel.Demotions.ArmedOverlap++
			return true
		}
		ranges[n] = hw.AddrRange{Lo: uint32(lo64), Hi: uint32(hi64)}
		n++
	}
	// Window prefilter against the cached relevant window: a footprint
	// disjoint from it cannot hit any non-exempt register, so the common
	// disjoint case skips the per-register scan entirely.
	hit := false
	for i := 0; i < n; i++ {
		if ranges[i].Lo < rhi && rlo < ranges[i].Hi {
			hit = true
			break
		}
	}
	if !hit {
		return false
	}
	if c.WP.MayMatchRanges(t.ID, ranges[:n]) {
		m.tel.Demotions.ArmedOverlap++
		return true
	}
	return false
}

// wouldTrap is the checked-mode access pre-check: it reports whether the
// access would hit an armed register, in which case the instruction must
// bail out pre-commit and replay on the legacy path, which records the
// access and delivers the trap (before- or after-access, per the hardware
// model) with identical state at the identical clock.
func (m *Machine) wouldTrap(c *Core, t *Thread, addr uint32, sz uint8, typ hw.AccessType) bool {
	if c.WP.Match(t.ID, addr, sz, typ) >= 0 {
		m.tel.Demotions.WouldTrap++
		return true
	}
	return false
}

// execFast retires exactly one instruction of thread t on core c with no
// kernel interaction and no access recording. In unchecked mode the caller
// (blockChecked) has proven no access can hit an armed register; in
// checked mode every access is pre-checked with wouldTrap before anything
// commits — multi-access instructions (PUSHM, CALLM) check all their
// accesses first, so a bail-out never leaves a partial commit. It returns
// false, leaving all machine state untouched, when the instruction must
// execute on the legacy path instead: a kernel boundary (SYS, HLT), an
// undecodable pc, a faulting condition (division by zero, out-of-bounds
// access), or a checked access that would trap. Stop-before semantics make
// the fallback exact: the legacy step re-executes the instruction at the
// identical clock with identical state.
func (m *Machine) execFast(c *Core, t *Thread, checked bool) bool {
	pc := t.PC
	if int(pc) >= len(m.execKind) {
		return false
	}
	k := m.execKind[pc]
	if k == ekNone {
		return false
	}
	in := &m.decoded[pc]
	r := &t.Regs
	nextPC := pc + uint32(in.Len)

	switch k {
	case ekNOP:
	case ekMOVI:
		r[in.Rd] = in.Imm
	case ekMOVR:
		r[in.Rd] = r[in.Ra]
	case ekALU:
		v, ok := alu(in.Op, r[in.Ra], r[in.Rb])
		if !ok {
			return false // division by zero: fault on the legacy path
		}
		r[in.Rd] = v
	case ekADDI:
		r[in.Rd] = r[in.Ra] + in.Imm
	case ekLD:
		if !m.inBounds(in.Addr, in.Sz) {
			return false
		}
		if checked && m.wouldTrap(c, t, in.Addr, in.Sz, hw.Read) {
			return false
		}
		r[in.Rd] = signExtend(m.loadRaw(in.Addr, in.Sz), in.Sz)
	case ekST:
		if !m.inBounds(in.Addr, in.Sz) {
			return false
		}
		if checked && m.wouldTrap(c, t, in.Addr, in.Sz, hw.Write) {
			return false
		}
		m.storeRaw(in.Addr, in.Sz, uint64(r[in.Ra]))
	case ekLDR:
		addr := uint32(r[in.Ra] + in.Imm)
		if !m.inBounds(addr, in.Sz) {
			return false
		}
		if checked && m.wouldTrap(c, t, addr, in.Sz, hw.Read) {
			return false
		}
		r[in.Rd] = signExtend(m.loadRaw(addr, in.Sz), in.Sz)
	case ekSTR:
		addr := uint32(r[in.Ra] + in.Imm)
		if !m.inBounds(addr, in.Sz) {
			return false
		}
		if checked && m.wouldTrap(c, t, addr, in.Sz, hw.Write) {
			return false
		}
		m.storeRaw(addr, in.Sz, uint64(r[in.Rb]))
	case ekPUSH:
		sp := uint32(r[isa.RegSP]) - 8
		if !m.inBounds(sp, 8) {
			return false
		}
		if checked && m.wouldTrap(c, t, sp, 8, hw.Write) {
			return false
		}
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(r[in.Ra]))
	case ekPOP:
		sp := uint32(r[isa.RegSP])
		if !m.inBounds(sp, 8) {
			return false
		}
		if checked && m.wouldTrap(c, t, sp, 8, hw.Read) {
			return false
		}
		r[in.Rd] = int64(m.loadRaw(sp, 8))
		r[isa.RegSP] = int64(sp + 8)
	case ekPUSHM:
		if !m.inBounds(in.Addr, in.Sz) {
			return false
		}
		sp := uint32(r[isa.RegSP]) - 8
		if !m.inBounds(sp, 8) {
			return false
		}
		if checked && (m.wouldTrap(c, t, in.Addr, in.Sz, hw.Read) ||
			m.wouldTrap(c, t, sp, 8, hw.Write)) {
			return false
		}
		v := signExtend(m.loadRaw(in.Addr, in.Sz), in.Sz)
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(v))
	case ekJMP:
		nextPC = in.Addr
	case ekJZ:
		if r[in.Ra] == 0 {
			nextPC = in.Addr
		}
	case ekJNZ:
		if r[in.Ra] != 0 {
			nextPC = in.Addr
		}
	case ekCALL:
		sp := uint32(r[isa.RegSP]) - 8
		if !m.inBounds(sp, 8) {
			return false
		}
		if checked && m.wouldTrap(c, t, sp, 8, hw.Write) {
			return false
		}
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(nextPC))
		nextPC = in.Addr
		t.Depth++
	case ekCALLM:
		if !m.inBounds(in.Addr, 8) {
			return false
		}
		sp := uint32(r[isa.RegSP]) - 8
		if !m.inBounds(sp, 8) {
			return false
		}
		if checked && (m.wouldTrap(c, t, in.Addr, 8, hw.Read) ||
			m.wouldTrap(c, t, sp, 8, hw.Write)) {
			return false
		}
		target := uint32(m.loadRaw(in.Addr, 8))
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(nextPC))
		nextPC = target
		t.Depth++
	case ekRET:
		sp := uint32(r[isa.RegSP])
		if !m.inBounds(sp, 8) {
			return false
		}
		if checked && m.wouldTrap(c, t, sp, 8, hw.Read) {
			return false
		}
		nextPC = uint32(m.loadRaw(sp, 8))
		r[isa.RegSP] = int64(sp + 8)
		if t.Depth > 0 {
			t.Depth--
		}
	}

	t.LastInstr = pc
	t.PC = nextPC
	return true
}

// MemHash returns the FNV-1a hash of data memory, for differential
// comparison of final memory images across dispatch modes.
func (m *Machine) MemHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range m.Mem {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
