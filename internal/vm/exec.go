package vm

import (
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/kernel"
	"kivati/internal/userlib"
)

// access records one committed memory access of an instruction, for the
// post-commit watchpoint check.
type access struct {
	addr uint32
	sz   uint8
	typ  hw.AccessType
}

// inBounds reports whether [addr, addr+sz) lies inside data memory.
func (m *Machine) inBounds(addr uint32, sz uint8) bool {
	return int(addr)+int(sz) <= len(m.Mem)
}

// rec records one memory access of the instruction core c is executing into
// the core's fixed access buffer (no per-step slice or closure allocation).
// It bounds-checks the access, faulting the thread on a miss, and on
// before-access hardware delivers the trap that aborts the instruction
// (setting c.trapAborted). A false return means the access did not commit;
// the caller must bail out through accessFailed.
func (m *Machine) rec(c *Core, t *Thread, addr uint32, sz uint8, typ hw.AccessType) bool {
	if !m.inBounds(addr, sz) {
		m.fault(t, "memory access out of bounds: %#x", addr)
		return false
	}
	if m.K.Cfg.TrapBefore {
		// Before-access hardware (Table 1: SPARC-class): the trap
		// fires before the access commits, aborting the instruction
		// with the PC still on it. No undo is ever needed.
		if c.WP.Match(t.ID, addr, sz, typ) >= 0 {
			c.trapAborted = true
			if m.segRecording() {
				m.seg.Global = true
			}
			m.kernelEntry(c, false, func() {
				m.K.HandleTrapBefore(t.ID, t.PC, kernel.Access{Addr: addr, Size: sz, Type: typ})
			})
			return false
		}
	}
	c.accs[c.nacc] = access{addr, sz, typ}
	c.nacc++
	return true
}

// accessFailed is the single exit path for an instruction whose memory
// access did not commit: either a before-access trap aborted it (charge the
// trap, keep the PC on the instruction for re-execution) or the bounds
// check faulted the thread (nothing more to charge). Keeping the
// post-failure semantics here — instead of duplicated after every rec call
// site — is what guarantees before-access-trap handling cannot drift
// between instruction forms.
func (m *Machine) accessFailed(c *Core, t *Thread, cost uint64) {
	if c.trapAborted {
		m.finish(c, t, cost+trapCost, nil)
		return
	}
	m.curCore = nil
}

// alu evaluates a two-operand ALU op. ok is false on division by zero, the
// one ALU condition that faults.
func alu(op isa.Op, a, b int64) (v int64, ok bool) {
	switch op {
	case isa.OpADD:
		v = a + b
	case isa.OpSUB:
		v = a - b
	case isa.OpMUL:
		v = a * b
	case isa.OpDIV:
		if b == 0 {
			return 0, false
		}
		v = a / b
	case isa.OpMOD:
		if b == 0 {
			return 0, false
		}
		v = a % b
	case isa.OpAND:
		v = a & b
	case isa.OpOR:
		v = a | b
	case isa.OpXOR:
		v = a ^ b
	case isa.OpSHL:
		v = a << (uint64(b) & 63)
	case isa.OpSHR:
		v = int64(uint64(a) >> (uint64(b) & 63))
	case isa.OpCEQ:
		v = b2i(a == b)
	case isa.OpCNE:
		v = b2i(a != b)
	case isa.OpCLT:
		v = b2i(a < b)
	case isa.OpCLE:
		v = b2i(a <= b)
	case isa.OpCGT:
		v = b2i(a > b)
	case isa.OpCGE:
		v = b2i(a >= b)
	}
	return v, true
}

// step executes one instruction of the core's current thread, charges its
// cost, and delivers a watchpoint trap if a committed access matches the
// core's debug registers (x86 trap-after semantics).
func (m *Machine) step(c *Core) {
	t := c.Cur
	in, ok := m.DecodeAt(t.PC)
	if !ok {
		t.LastInstr = t.PC
		m.fault(t, "invalid instruction")
		return
	}
	t.LastInstr = t.PC
	m.Stats.Instructions++
	m.curCore = c
	cost := uint64(instrCost)

	c.nacc = 0
	c.trapAborted = false

	nextPC := t.PC + uint32(in.Len)
	r := &t.Regs
	op := in.Op

	switch {
	case op == isa.OpNOP:
	case op == isa.OpHLT:
		m.exitThread(t)
		m.curCore = nil
		c.BusyUntil = m.clock + cost
		return
	case op == isa.OpMOVQ || op == isa.OpMOVL:
		r[in.Rd] = in.Imm
	case op == isa.OpMOVR:
		r[in.Rd] = r[in.Ra]
	case op >= isa.OpADD && op <= isa.OpCGE:
		v, ok := alu(op, r[in.Ra], r[in.Rb])
		if !ok {
			m.fault(t, "division by zero")
			m.curCore = nil
			return
		}
		r[in.Rd] = v
	case op == isa.OpADDI:
		r[in.Rd] = r[in.Ra] + in.Imm
	case op >= isa.OpLD && op < isa.OpLD+4:
		if !m.rec(c, t, in.Addr, in.Sz, hw.Read) {
			m.accessFailed(c, t, cost)
			return
		}
		r[in.Rd] = signExtend(m.loadRaw(in.Addr, in.Sz), in.Sz)
	case op >= isa.OpST && op < isa.OpST+4:
		if !m.rec(c, t, in.Addr, in.Sz, hw.Write) {
			m.accessFailed(c, t, cost)
			return
		}
		m.storeRaw(in.Addr, in.Sz, uint64(r[in.Ra]))
	case op >= isa.OpLDR && op < isa.OpLDR+4:
		addr := uint32(r[in.Ra] + in.Imm)
		if !m.rec(c, t, addr, in.Sz, hw.Read) {
			m.accessFailed(c, t, cost)
			return
		}
		r[in.Rd] = signExtend(m.loadRaw(addr, in.Sz), in.Sz)
	case op >= isa.OpSTR && op < isa.OpSTR+4:
		addr := uint32(r[in.Ra] + in.Imm)
		if !m.rec(c, t, addr, in.Sz, hw.Write) {
			m.accessFailed(c, t, cost)
			return
		}
		m.storeRaw(addr, in.Sz, uint64(r[in.Rb]))
	case op == isa.OpPUSH:
		sp := uint32(r[isa.RegSP]) - 8
		if !m.rec(c, t, sp, 8, hw.Write) {
			m.accessFailed(c, t, cost)
			return
		}
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(r[in.Ra]))
	case op == isa.OpPOP:
		sp := uint32(r[isa.RegSP])
		if !m.rec(c, t, sp, 8, hw.Read) {
			m.accessFailed(c, t, cost)
			return
		}
		r[in.Rd] = int64(m.loadRaw(sp, 8))
		r[isa.RegSP] = int64(sp + 8)
	case op >= isa.OpPUSHM && op < isa.OpPUSHM+4:
		// Memory-to-stack move: read the source, write the stack.
		if !m.rec(c, t, in.Addr, in.Sz, hw.Read) {
			m.accessFailed(c, t, cost)
			return
		}
		v := signExtend(m.loadRaw(in.Addr, in.Sz), in.Sz)
		sp := uint32(r[isa.RegSP]) - 8
		if !m.rec(c, t, sp, 8, hw.Write) {
			m.accessFailed(c, t, cost)
			return
		}
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(v))
	case op == isa.OpJMP:
		nextPC = in.Addr
	case op == isa.OpJZ:
		if r[in.Ra] == 0 {
			nextPC = in.Addr
		}
	case op == isa.OpJNZ:
		if r[in.Ra] != 0 {
			nextPC = in.Addr
		}
	case op == isa.OpCALL:
		sp := uint32(r[isa.RegSP]) - 8
		if !m.rec(c, t, sp, 8, hw.Write) {
			m.accessFailed(c, t, cost)
			return
		}
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(nextPC))
		nextPC = in.Addr
		t.Depth++
	case op == isa.OpCALLM:
		// Indirect call: the target-PC read can hit a watchpoint — the
		// §3.3 call special case.
		if !m.rec(c, t, in.Addr, 8, hw.Read) {
			m.accessFailed(c, t, cost)
			return
		}
		target := uint32(m.loadRaw(in.Addr, 8))
		sp := uint32(r[isa.RegSP]) - 8
		if !m.rec(c, t, sp, 8, hw.Write) {
			m.accessFailed(c, t, cost)
			return
		}
		r[isa.RegSP] = int64(sp)
		m.storeRaw(sp, 8, uint64(nextPC))
		nextPC = target
		t.Depth++
	case op == isa.OpRET:
		sp := uint32(r[isa.RegSP])
		if !m.rec(c, t, sp, 8, hw.Read) {
			m.accessFailed(c, t, cost)
			return
		}
		nextPC = uint32(m.loadRaw(sp, 8))
		r[isa.RegSP] = int64(sp + 8)
		if t.Depth > 0 {
			t.Depth--
		}
	case op == isa.OpSYS:
		t.PC = nextPC
		cost += m.syscall(c, t, t.LastInstr, int(in.Imm))
		m.finish(c, t, cost, nil)
		return
	default:
		m.fault(t, "unimplemented opcode %v", op)
		m.curCore = nil
		return
	}

	t.PC = nextPC
	m.finish(c, t, cost, c.accs[:c.nacc])
}

// finish charges the instruction cost, checks the committed accesses
// against the core's watchpoint registers, and delivers at most one trap.
func (m *Machine) finish(c *Core, t *Thread, cost uint64, accs []access) {
	cost += m.cfg.Costs.AccessCheck * uint64(len(accs))
	if m.segRecording() {
		for _, a := range accs {
			m.segAccess(a.addr, a.sz, a.typ)
		}
	}
	for _, a := range accs {
		if c.WP.Match(t.ID, a.addr, a.sz, a.typ) >= 0 {
			// Trap: a kernel entry with the access committed. The
			// kernel handles it, possibly undoing the access and
			// suspending the thread.
			cost += trapCost
			if m.segRecording() {
				// Trap handling mutates kernel state the access stream
				// does not describe; the segment conflicts with all.
				m.seg.Global = true
			}
			m.kernelEntry(c, true, func() {
				m.K.HandleTrap(t.ID, t.PC, kernel.Access{Addr: a.addr, Size: a.sz, Type: a.typ})
			})
			break
		}
	}
	c.BusyUntil = m.clock + cost
	if t.State != stRunning && t.OnCore == c.ID {
		t.OnCore = -1
		c.Cur = nil
	}
	m.curCore = nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func signExtend(v uint64, sz uint8) int64 {
	switch sz {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	}
	return int64(v)
}

// syscall dispatches a SYS instruction and returns its additional cost.
// sysPC is the PC of the SYS instruction (threads suspended in begin_atomic
// are rewound to it for retry). Exit, print, rand and nanos, and the
// annotation calls the user library serves, return early; every other call
// is a kernel entry whose handler runs inside kernelEntry.
func (m *Machine) syscall(c *Core, t *Thread, sysPC uint32, n int) uint64 {
	if m.segRecording() {
		// Every syscall touches kernel/scheduler state (locks, AR tables,
		// run queues) outside the recorded access stream: treat the whole
		// segment as conflicting with everything rather than modeling
		// per-syscall effects.
		m.seg.Global = true
	}
	var handler func()
	switch n {
	case isa.SysExit:
		m.exitThread(t)
		return syscallCost

	case isa.SysBeginAtomic:
		m.Stats.Begins++
		arID := int(t.Regs[0])
		addr := uint32(t.Regs[1])
		size := uint8(t.Regs[2])
		watch := hw.AccessType(t.Regs[3])
		first := hw.AccessType(t.Regs[4])
		if userlib.Begin(m.K, t.ID, sysPC, arID, addr, size, watch, first) != userlib.EnterKernel {
			return userLibCost
		}
		handler = func() { m.K.BeginAtomic(t.ID, sysPC, arID, addr, size, watch, first) }

	case isa.SysEndAtomic:
		m.Stats.Ends++
		arID := int(t.Regs[0])
		second := hw.AccessType(t.Regs[1])
		if userlib.End(m.K, t.ID, arID, second) != userlib.EnterKernel {
			return userLibCost
		}
		handler = func() { m.K.EndAtomic(t.ID, arID, second) }

	case isa.SysClearAR:
		m.Stats.Clears++
		if userlib.Clear(m.K, t.ID, t.Depth) != userlib.EnterKernel {
			return userLibCost
		}
		handler = func() { m.K.ClearAR(t.ID) }

	case isa.SysLock:
		m.Stats.OtherSyscalls++
		handler = func() { m.K.Lock(t.ID, uint32(t.Regs[0])) }

	case isa.SysUnlock:
		m.Stats.OtherSyscalls++
		handler = func() { m.K.Unlock(t.ID, uint32(t.Regs[0])) }

	case isa.SysYield:
		m.Stats.OtherSyscalls++
		handler = func() { m.preempt(c) }

	case isa.SysSleep:
		m.Stats.OtherSyscalls++
		handler = func() {
			m.Suspend(t.ID, kernel.BlockSleep)
			m.SetWakeAt(t.ID, m.clock+max(uint64(t.Regs[0]), 1))
		}

	case isa.SysPrint:
		m.Stats.OtherSyscalls++
		m.Output = append(m.Output, t.Regs[0])
		return syscallCost

	case isa.SysSpawn:
		m.Stats.OtherSyscalls++
		handler = func() {
			tid, err := m.startAt(uint32(t.Regs[0]), t.Regs[1])
			if err != nil {
				tid = -1
			}
			t.Regs[0] = int64(tid)
		}

	case isa.SysRand:
		t.Regs[0] = int64(m.rng.Int63())
		return 2

	case isa.SysRecv:
		m.Stats.OtherSyscalls++
		handler = func() {
			if len(m.reqQueue) == 0 {
				m.reqWaiters = append(m.reqWaiters, t)
				m.Suspend(t.ID, kernel.BlockRecv)
				return
			}
			t.Regs[0] = int64(m.reqQueue[0])
			m.reqQueue = m.reqQueue[1:]
		}

	case isa.SysSend:
		m.Stats.OtherSyscalls++
		handler = func() {
			if at, ok := m.reqArrivals[int(t.Regs[0])]; ok {
				m.Latencies = append(m.Latencies, m.clock-at)
				delete(m.reqArrivals, int(t.Regs[0]))
			}
		}

	case isa.SysNanos:
		t.Regs[0] = int64(m.clock)
		return 2

	default:
		m.fault(t, "unknown syscall %d", n)
		return syscallCost
	}
	m.kernelEntry(c, false, handler)
	return syscallCost
}
