package vm

import (
	"container/heap"
	"encoding/binary"

	"kivati/internal/isa"
	"kivati/internal/kernel"
)

// This file implements kernel.Machine: the hardware/OS surface the Kivati
// kernel component drives.

// Now returns the virtual clock.
func (m *Machine) Now() uint64 { return m.clock }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Suspend blocks a thread. If it is currently running, its core is
// released.
func (m *Machine) Suspend(tid int, kind kernel.BlockKind) {
	t := m.threads[tid]
	if t.State == stDone {
		return
	}
	if t.State == stRunnable {
		// Remove from the run queue.
		for i, q := range m.runq {
			if q == t {
				m.runq = append(m.runq[:i], m.runq[i+1:]...)
				break
			}
		}
	}
	if t.OnCore >= 0 {
		m.cores[t.OnCore].Cur = nil
		t.OnCore = -1
	}
	if t.State == stBlocked && (t.Block == kernel.BlockEpoch || t.Block == kernel.BlockPause) {
		m.epochBlocked--
	}
	t.State = stBlocked
	t.Block = kind
	if kind == kernel.BlockEpoch || kind == kernel.BlockPause {
		m.epochBlocked++
	}
}

// Resume makes a blocked thread runnable.
func (m *Machine) Resume(tid int) {
	t := m.threads[tid]
	if t.State != stBlocked {
		return
	}
	if t.Block == kernel.BlockEpoch || t.Block == kernel.BlockPause {
		m.epochBlocked--
	}
	t.State = stRunnable
	t.Block = kernel.BlockNone
	t.WakeAt = 0
	t.EpochTarget = 0
	m.runq = append(m.runq, t)
}

// SetWakeAt arms a time-based wake condition for BlockPause/BlockSleep.
// The pending wake is pure data (evWake) so snapshots can capture it.
func (m *Machine) SetWakeAt(tid int, tick uint64) {
	t := m.threads[tid]
	t.WakeAt = tick
	m.pushEvent(event{tick: tick, kind: evWake, a: uint64(tid)})
}

// SetEpochTarget arms an epoch-based wake condition for BlockEpoch.
func (m *Machine) SetEpochTarget(tid int, epoch uint64) {
	m.threads[tid].EpochTarget = epoch
}

// tryWake wakes an epoch/pause-blocked thread if all its conditions hold.
// Just before it resumes — the moment it enters its atomic region — the
// kernel re-records the rollback values for its ARs, closing the window in
// which a not-yet-propagated core stored to the variable untrapped.
func (m *Machine) tryWake(t *Thread) {
	if t.State != stBlocked {
		return
	}
	if t.WakeAt > m.clock {
		return
	}
	if t.EpochTarget > 0 && m.minCoreEpoch() < t.EpochTarget {
		return
	}
	if t.Block == kernel.BlockEpoch || t.Block == kernel.BlockPause {
		m.K.RecaptureSaved(t.ID)
	}
	m.Resume(t.ID)
}

func (m *Machine) minCoreEpoch() uint64 {
	min := ^uint64(0)
	for _, c := range m.cores {
		if c.WP.Epoch < min {
			min = c.WP.Epoch
		}
	}
	return min
}

// checkEpochWaiters wakes every epoch/pause-blocked thread whose conditions
// now hold. The blocked-thread count short-circuits the scan — kernel
// entries call this on every syscall, trap and timer interrupt, and in runs
// with no suspensions the full-table walk was pure overhead.
func (m *Machine) checkEpochWaiters() {
	if m.epochBlocked == 0 {
		return
	}
	for _, t := range m.threads {
		if t.State == stBlocked && (t.Block == kernel.BlockEpoch || t.Block == kernel.BlockPause) {
			m.tryWake(t)
		}
	}
}

// kernelEntry is core c's one way into the kernel (trap, syscall or timer
// interrupt): the core adopts the canonical watchpoint state, the handler
// runs, and then waiters whose epoch or pause wait is over wake. A woken
// thread re-records its rollback values from memory (tryWake), so after a
// committed access none wakes before the handler that may undo it; other
// entries also wake those the adoption releases first, ahead of any thread
// the handler queues.
func (m *Machine) kernelEntry(c *Core, committed bool, handler func()) {
	m.adoptCanon(c)
	if !committed {
		m.checkEpochWaiters()
	}
	handler()
	m.checkEpochWaiters()
}

// adoptCanon synchronizes core c's watchpoint register file with the
// kernel's canonical state: a core whose file already carries the canonical
// mutation count keeps its registers (at a timer interrupt under a
// quiescent watchpoint table, one counter comparison), any other copies the
// whole file. It is the single chokepoint for every cross-core propagation
// site (kernel entries, idle adoption, EpochChanged).
func (m *Machine) adoptCanon(c *Core) {
	if c.WP.Adopt(m.K.Canon) {
		m.tel.FullArms++
	} else {
		m.tel.DeltaArms++
	}
}

// ThreadDepth returns the thread's call depth.
func (m *Machine) ThreadDepth(tid int) int { return m.threads[tid].Depth }

// PC returns the thread's program counter.
func (m *Machine) PC(tid int) uint32 { return m.threads[tid].PC }

// SetPC sets the thread's program counter (used to rewind over an undone
// access or to retry a blocked begin_atomic).
func (m *Machine) SetPC(tid int, pc uint32) { m.threads[tid].PC = pc }

// Reg reads a register.
func (m *Machine) Reg(tid int, r int) int64 { return m.threads[tid].Regs[r] }

// SetReg writes a register.
func (m *Machine) SetReg(tid int, r int, v int64) { m.threads[tid].Regs[r] = v }

// LastInstrPC returns the PC of the thread's most recently executed
// instruction.
func (m *Machine) LastInstrPC(tid int) uint32 { return m.threads[tid].LastInstr }

// Load reads memory (kernel access: no watchpoint check).
func (m *Machine) Load(addr uint32, sz uint8) uint64 { return m.loadRaw(addr, sz) }

// Store writes memory (kernel access: no watchpoint check).
func (m *Machine) Store(addr uint32, sz uint8, v uint64) { m.storeRaw(addr, sz, v) }

// Boundary returns the binary's instruction-boundary table.
func (m *Machine) Boundary() *isa.BoundaryTable { return m.Bin.Boundary }

// DecodeAt returns the decoded instruction at pc.
func (m *Machine) DecodeAt(pc uint32) (isa.Instr, bool) {
	if int(pc) >= len(m.decoded) || m.decoded[pc].Len == 0 {
		return isa.Instr{}, false
	}
	return m.decoded[pc], true
}

// pushEvent enqueues a timer event, stamping its tie-break sequence.
func (m *Machine) pushEvent(ev event) {
	m.eventSeq++
	ev.seq = m.eventSeq
	heap.Push(&m.events, ev)
}

// After schedules fn at Now()+ticks. Closure events cannot be captured by
// a Snapshot; kernel-originated timers use the typed AfterTimeout instead.
func (m *Machine) After(ticks uint64, fn func()) {
	m.pushEvent(event{tick: m.clock + ticks, kind: evFn, fn: fn})
}

// AfterTimeout schedules a watchpoint suspension-timeout: at Now()+ticks
// the kernel's TimeoutWP(wpIdx, gen) runs. Stored as data so pending
// timeouts snapshot and restore.
func (m *Machine) AfterTimeout(ticks uint64, wpIdx int, gen uint64) {
	m.pushEvent(event{tick: m.clock + ticks, kind: evWPTimeout, a: uint64(wpIdx), b: gen})
}

// EpochChanged: the canonical watchpoint state changed. The executing core
// is in the kernel and adopts immediately; the rest adopt on their next
// kernel entry or when idle (the coresBehind flag arms the Run loop's
// batched idle-adoption scan). Waiters wake when the entry ends, after any
// undo (kernelEntry), or at the Run loop top.
func (m *Machine) EpochChanged() {
	m.coresBehind = true
	if m.curCore != nil {
		m.adoptCanon(m.curCore)
	}
}

// raw little-endian memory access; out-of-bounds reads return 0 and writes
// are dropped (the executing path bounds-checks and faults the thread
// first). Loads of a power-of-two size and 8-byte stores are single word
// accesses; the byte loops serve the rest.
func (m *Machine) loadRaw(addr uint32, sz uint8) uint64 {
	if int(addr)+int(sz) > len(m.Mem) {
		return 0
	}
	switch sz {
	case 8:
		return binary.LittleEndian.Uint64(m.Mem[addr:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.Mem[addr:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.Mem[addr:]))
	case 1:
		return uint64(m.Mem[addr])
	}
	var v uint64
	for i := uint8(0); i < sz; i++ {
		v |= uint64(m.Mem[addr+uint32(i)]) << (8 * i)
	}
	return v
}

func (m *Machine) storeRaw(addr uint32, sz uint8, v uint64) {
	if int(addr)+int(sz) > len(m.Mem) {
		return
	}
	if sz == 8 {
		m.store8((*memImage)(m.Mem), addr, v)
		return
	}
	m.markDirty(addr, sz)
	for i := range sz {
		m.Mem[addr+uint32(i)] = byte(v >> (8 * i))
	}
}

// markDirty records a store to [addr, addr+sz), sz <= pageSize, in the
// dirty-page and dirty-chunk maps snapshots read. Such a store spans at most
// two pages; only one that crosses a page boundary touches the second. The
// caller has bounds-checked the store, so masking the page numbers changes
// none of them; it only lets the compiler drop the index checks.
func (m *Machine) markDirty(addr uint32, sz uint8) {
	const pageMask, chunkMask = uint32(numPages - 1), uint32(numChunks - 1)
	p := addr >> pageShift & pageMask
	m.pageDirty[p] = true
	m.chunkDirty[p>>chunkShift&chunkMask] = true
	if addr&(pageSize-1) > pageSize-uint32(sz) {
		p = (addr + uint32(sz) - 1) >> pageShift & pageMask
		m.pageDirty[p] = true
		m.chunkDirty[p>>chunkShift&chunkMask] = true
	}
}

// store8 is storeRaw's 8-byte store, the fast interpreter's common case:
// the dirty marks, then one word write. The caller has checked addr <=
// MemSize-8; given that, the compiler drops every bounds check here.
func (m *Machine) store8(mem *memImage, addr uint32, v uint64) {
	m.markDirty(addr, 8)
	binary.LittleEndian.PutUint64(mem[addr:], v)
}

// loadN is the fast interpreter's load of any width, sign-extended, from
// the bounds-checked addr; its own 8-byte loads are inline.
func loadN(mem *memImage, addr uint32, sz uint8) int64 {
	var v uint64
	for i := range sz {
		v |= uint64(mem[addr+uint32(i)]) << (8 * i)
	}
	s := 64 - 8*uint(sz)
	return int64(v<<s) >> s
}
