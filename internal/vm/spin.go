package vm

import (
	"reflect"

	"kivati/internal/isa"
)

// Lone-spin skip. A thread that yields in a loop while every other thread
// sleeps, waits out a suspension timeout or is otherwise blocked — the
// fixtures' join loop `while (done < 2) yield();` while both workers sit
// in Kivati's 10 ms trap timeout — runs one cycle over and over on a
// one-core machine: the yield puts it back as the whole run queue, the
// core picks it again without a decision, one fast window runs the loop
// body up to the next yield, and the yield enters the kernel. Each cycle
// changes nothing but the clock and the counters, yet pays a kernel entry,
// a forced pick, a window and a legacy step.
//
// So after each yield that leaves its thread T as the whole run queue the
// machine records T's registers, pc and call depth, the core's BusyUntil
// and NextTimer relative to the clock, the watchpoint epochs and mutation
// counts of the core's file and of the canonical one, the event queue's
// push count and length, and every counter of kernel.Stats and of the
// telemetry. Two consecutive records bracket a cycle that repeats exactly
// when
//
//   - exactly one fast window ran between them and no other legacy step,
//     no event, no scheduling decision and no Restore happened (any other
//     step drops the record, Restore drops it, and the window, decision
//     and event counts are compared);
//   - no superblock the window entered holds a store (Machine.winStores,
//     from the per-superblock flag), so memory is unchanged and every load
//     of the next cycle reads what this one read;
//   - the recorded state is equal, and no kernel.Stats counter moved but
//     Instructions and OtherSyscalls.
//
// The next cycle then starts from the same thread state, memory,
// watchpoint registers and timer phase, and so does the same work,
// provided no event falls due and MaxTicks is not reached before it ends.
// With P the clock distance between the records, the machine skips the
// largest k cycles with clock + k·P < min(next event tick, MaxTicks): it
// moves the clock, BusyUntil and NextTimer forward by k·P and adds k
// times the cycle's delta to every counter, which is the state the
// uninterrupted run reaches at its k-th next yield. A spin that no event
// or tick limit ends is never skipped. DispatchStep never skips, so the
// Step-vs-Fast gates check the skip.

// spinRecord is the lone-spin skip's record of one yield.
type spinRecord struct {
	valid bool
	tid   int
	pc    uint32
	depth int
	regs  [isa.NumRegs]int64
	clock uint64
	// busy and timer are the core's BusyUntil and NextTimer minus clock.
	busy, timer           uint64
	wpEpoch, wpMuts       uint64
	canonEpoch, canonMuts uint64
	eventSeq              uint64
	events                int
	windows, decisions    uint64 // Telemetry.FastWindows and Decisions
	ctrs                  []uint64
}

// counterPtrs appends the address of every uint64 field of the struct v
// points to, nested structs included.
func counterPtrs(dst []*uint64, v reflect.Value) []*uint64 {
	v = v.Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			dst = append(dst, f.Addr().Interface().(*uint64))
		case reflect.Struct:
			dst = counterPtrs(dst, f.Addr())
		}
	}
	return dst
}

// initSpin lists the counters the skip records and advances: every
// uint64 field of kernel.Stats, then of the telemetry. Only a one-core
// fast-tier machine skips.
func (m *Machine) initSpin() {
	if !m.fastOK || len(m.cores) != 1 {
		return
	}
	m.ctrs = counterPtrs(nil, reflect.ValueOf(m.Stats))
	m.nStatsCtrs = len(m.ctrs)
	m.ctrs = counterPtrs(m.ctrs, reflect.ValueOf(&m.tel))
}

// take records the machine right after thread t's yield on core c.
func (r *spinRecord) take(m *Machine, c *Core, t *Thread) {
	r.valid = true
	r.tid, r.pc, r.depth, r.regs = t.ID, t.PC, t.Depth, t.Regs
	r.clock = m.clock
	r.busy, r.timer = c.BusyUntil-m.clock, c.NextTimer-m.clock
	r.wpEpoch, r.wpMuts = c.WP.Epoch, c.WP.Muts()
	r.canonEpoch, r.canonMuts = m.K.Canon.Epoch, m.K.Canon.Muts()
	r.eventSeq, r.events = m.eventSeq, len(m.events)
	r.windows, r.decisions = m.tel.FastWindows, m.tel.Decisions
	r.ctrs = r.ctrs[:0]
	for _, p := range m.ctrs {
		r.ctrs = append(r.ctrs, *p)
	}
}

// repeats reports whether the cycle from record p to record r repeats
// exactly (see the file comment); the store test is the caller's.
func (r *spinRecord) repeats(p *spinRecord, m *Machine) bool {
	if r.tid != p.tid || r.pc != p.pc || r.depth != p.depth || r.regs != p.regs ||
		r.busy != p.busy || r.timer != p.timer ||
		r.wpEpoch != p.wpEpoch || r.wpMuts != p.wpMuts ||
		r.canonEpoch != p.canonEpoch || r.canonMuts != p.canonMuts ||
		r.eventSeq != p.eventSeq || r.events != p.events ||
		r.windows != p.windows+1 || r.decisions != p.decisions {
		return false
	}
	for i, v := range r.ctrs[:m.nStatsCtrs] {
		if v != p.ctrs[i] && m.ctrs[i] != &m.Stats.Instructions && m.ctrs[i] != &m.Stats.OtherSyscalls {
			return false
		}
	}
	return true
}

// afterStep runs after each legacy step of thread t on the one core c. A
// yield that leaves t as the whole run queue is recorded and, when the
// cycle since the previous record repeats, skipped ahead; every other step
// drops the record.
func (m *Machine) afterStep(c *Core, t *Thread) {
	prev := &m.spin[m.spinAt]
	if c.Cur != nil || len(m.runq) != 1 || m.runq[0] != t.ID ||
		m.decoded[t.LastInstr].Op != isa.OpSYS || m.decoded[t.LastInstr].Imm != isa.SysYield {
		prev.valid = false
		return
	}
	cur := &m.spin[m.spinAt^1]
	cur.take(m, c, t)
	if prev.valid && !m.winStores && cur.repeats(prev, m) {
		m.skipCycles(c, prev, cur)
	}
	m.spinAt ^= 1
}

// skipCycles skips the largest k repeats of the cycle from prev to cur
// that end before the next event and MaxTicks, and advances cur with the
// machine.
func (m *Machine) skipCycles(c *Core, prev, cur *spinRecord) {
	limit := ^uint64(0)
	if len(m.events) > 0 {
		limit = m.events[0].tick
	}
	if m.cfg.MaxTicks > 0 {
		limit = min(limit, m.cfg.MaxTicks)
	}
	if limit == ^uint64(0) || limit <= m.clock {
		return
	}
	period := cur.clock - prev.clock
	k := (limit - 1 - m.clock) / period
	if k == 0 {
		return
	}
	d := k * period
	m.clock += d
	c.BusyUntil += d
	c.NextTimer += d
	cur.clock = m.clock
	for i, p := range m.ctrs {
		*p += k * (cur.ctrs[i] - prev.ctrs[i])
		cur.ctrs[i] = *p
	}
	cur.windows, cur.decisions = m.tel.FastWindows, m.tel.Decisions
	m.spinSkipped += k
}
