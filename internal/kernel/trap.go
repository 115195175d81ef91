package kernel

import (
	"kivati/internal/hw"
	"kivati/internal/isa"
)

// Access describes one committed memory access of the trapping instruction,
// as reported by the hardware.
type Access struct {
	Addr uint32
	Size uint8
	Type hw.AccessType
}

// HandleTrap is the watchpoint trap handler (§3.2–§3.3). It runs after the
// triggering instruction has committed (x86 trap-after semantics): trapPC is
// the PC the processor reports, i.e. the instruction *after* the access. The
// handler classifies the access as local or remote; remote accesses are
// undone, recorded against every AR on the watchpoint, and the remote thread
// is suspended until the ARs complete or the timeout fires.
func (k *Kernel) HandleTrap(t int, trapPC uint32, acc Access) {
	k.trap(t, trapPC, acc, false)
}

// HandleTrapBefore is the trap handler for before-access hardware (Table 1:
// SPARC-class). The access has NOT committed: the VM aborted the
// instruction with the PC still on it, so delaying the thread needs no undo
// at all — no boundary table, no memory rollback, no leak guards.
func (k *Kernel) HandleTrapBefore(t int, pc uint32, acc Access) {
	k.trap(t, pc, acc, true)
}

// trap is both trap handlers; before says the access has not committed,
// which skips the undo engine: the local-write capture of the rollback
// value and the undo itself.
func (k *Kernel) trap(t int, pc uint32, acc Access, before bool) {
	k.Stats.Traps++

	// The hardware reports one register, but on x86 the debug status
	// register flags every breakpoint the access matched; the handler must
	// process all of them. Two threads can hold ARs on the same variable
	// simultaneously (their begins don't conflict when the watch types
	// don't cover each other's first access), so an access can be local to
	// one watchpoint and remote to another.
	var remote, local []int // local: watchpoints the access is a local write to
	matchedAny := false
	for i := range k.Canon.WPs {
		wp := k.Canon.WPs[i]
		m := k.Meta[i]
		if !wp.Armed || wp.Types&acc.Type == 0 ||
			!(acc.Addr < wp.Addr+uint32(wp.Size) && wp.Addr < acc.Addr+uint32(acc.Size)) {
			continue
		}
		matchedAny = true
		// Lazily released watchpoint (optimization 2): the user-space
		// copy says it should be free — free it now, no violation (§3.4).
		if m.Stale {
			k.Stats.StaleFrees++
			k.disarm(i)
			continue
		}
		if m.Guard {
			if m.GuardOwner != t {
				remote = append(remote, i)
			}
			continue
		}
		if len(m.ARs) > 0 && m.ARs[0].Thread == t {
			// Local access: with optimization 3 the hardware never
			// delivers these; without it, the kernel records the value
			// after the first local write so remote writes can be rolled
			// back (§3.3), and otherwise ignores the trap.
			if acc.Type == hw.Write && !before {
				local = append(local, i)
			}
			continue
		}
		if len(m.ARs) > 0 {
			remote = append(remote, i)
		}
	}
	if !matchedAny {
		// A core with stale debug registers can trap on a watchpoint the
		// kernel has since disarmed or reconfigured; the canonical state
		// decides. The core took up the canonical state on entry, so it
		// will not re-trap.
		k.Stats.SpuriousTraps++
		return
	}
	// Undo a committed remote access, record it on every AR of every
	// watchpoint it violated, and suspend the remote thread on the first.
	undone := false
	if len(remote) > 0 {
		rec := RemoteRec{Thread: t, PC: pc, Type: acc.Type, Tick: k.M.Now(), Undone: true}
		if !before {
			if instrPC, ok := k.undo(t, pc, acc, remote[0]); ok {
				rec.PC = instrPC
			} else {
				// Cannot reorder this access: let the thread continue (§3.3).
				rec.Undone = false
				k.Stats.Unreorderable++
			}
		}
		k.recordRemote(rec, remote...)
		undone = rec.Undone
	}
	if undone {
		// Suspend on the first watchpoint; if others still watch the
		// variable when it frees, re-execution traps again and waits on
		// them — the thread stays delayed until the variable is in no AR
		// (§2.2).
		k.suspendOn(t, remote[0], BlockTrap)
		return
	}
	// The write stays, so it is the rollback value of the ARs it is local
	// to. An undone one must not be: a later undo would restore it.
	for _, i := range local {
		wp := k.Canon.WPs[i]
		k.Meta[i].SavedValue = k.M.Load(wp.Addr, wp.Size)
		k.Meta[i].HasSaved = true
	}
}

// recordRemote records a remote access on every AR of the watchpoints.
func (k *Kernel) recordRemote(rec RemoteRec, wpIdxs ...int) {
	for _, i := range wpIdxs {
		for _, ar := range k.Meta[i].ARs {
			ar.Remotes = append(ar.Remotes, rec)
		}
	}
}

// suspendOn suspends thread t on watchpoint wpIdx — a remote trapped on it
// (BlockTrap) or a begin_atomic on its address (BlockBegin) — and arms the
// watchpoint's suspension timeout.
func (k *Kernel) suspendOn(t, wpIdx int, kind BlockKind) {
	m := k.Meta[wpIdx]
	if kind == BlockBegin {
		m.BeginSuspended = append(m.BeginSuspended, t)
	} else {
		m.TrapSuspended = append(m.TrapSuspended, t)
	}
	k.M.Suspend(t, kind)
	k.Stats.Suspensions++
	k.armTimeout(wpIdx)
}

// undo reverses the effects of the instruction that performed the remote
// access, so it can be re-executed after the ARs complete (§3.3). The
// instruction's PC is recovered from the pre-computed boundary table, with
// the call-instruction special case handled via the return address on the
// stack. Returns the instruction PC and whether the undo succeeded.
func (k *Kernel) undo(t int, trapPC uint32, acc Access, wpIdx int) (uint32, bool) {
	bt := k.M.Boundary()
	var instrPC uint32
	if pc, ok := bt.PrevAccess(trapPC); ok {
		instrPC = pc
	} else if bt.IsFuncEntry(trapPC) {
		// The trap PC is a subroutine's first instruction: the access was
		// made by a call instruction. The call site is found from the
		// return address at the top of the stack (§3.3).
		sp := uint32(k.M.Reg(t, isa.RegSP))
		ret := uint32(k.M.Load(sp, 8))
		instrPC = ret - isa.CallMLen
	} else {
		return 0, false
	}

	// Cross-check against reality: a control transfer (e.g. RET) can land
	// on a PC whose boundary-table predecessor is a different
	// memory-accessing instruction. The real Kivati would mis-undo here;
	// we refuse and count it.
	if actual := k.M.LastInstrPC(t); actual != instrPC {
		k.Stats.BoundaryMismatch++
		return 0, false
	}

	in, ok := k.M.DecodeAt(instrPC)
	if !ok {
		return 0, false
	}

	wp := k.Canon.WPs[wpIdx]
	m := k.Meta[wpIdx]

	if acc.Type == hw.Write {
		// Undo the write: roll the shared variable back to the value
		// recorded after the first local access (§3.3). With
		// optimization 3 the value comes from the shadow page, kept
		// current by the replicated first local write.
		val := m.SavedValue
		if k.Cfg.ShadowDelta != 0 && k.firstIsWrite(m) {
			val = k.M.Load(wp.Addr+k.Cfg.ShadowDelta, wp.Size)
		}
		if !m.HasSaved {
			return 0, false
		}
		k.M.Store(wp.Addr, wp.Size, val)
	} else if isPushM(in.Op) {
		// A remote read whose destination is another memory location:
		// the inconsistent value must not leak to other threads, so
		// configure another watchpoint to guard it (§3.3). PUSHM wrote
		// the value at the post-push stack pointer.
		dest := uint32(k.M.Reg(t, isa.RegSP))
		gi := k.Canon.FreeIndex()
		if gi < 0 {
			// No hardware left: allow the thread to continue and log
			// that this access could not be reordered (§3.3).
			return 0, false
		}
		k.Canon.Set(gi, hw.Watchpoint{
			Addr: dest, Size: 8, Types: hw.ReadWrite, Armed: true, Owner: -1, LocalOf: t,
		})
		k.Canon.Epoch++
		gm := k.Meta[gi]
		gm.Gen++
		gm.Guard = true
		gm.GuardOwner = t
		gm.SavedValue = k.M.Load(dest, 8)
		gm.HasSaved = true
		k.Stats.GuardsArmed++
		k.M.EpochChanged()
	}
	// Reads into registers need no memory undo: the stale register value
	// is overwritten when the access re-executes (§3.3).

	// Undo instruction-dependent side effects on the stack pointer.
	switch {
	case in.Op == isa.OpPUSH || isPushM(in.Op) || in.Op == isa.OpCALL || in.Op == isa.OpCALLM:
		k.M.SetReg(t, isa.RegSP, k.M.Reg(t, isa.RegSP)+8)
	case in.Op == isa.OpPOP || in.Op == isa.OpRET:
		k.M.SetReg(t, isa.RegSP, k.M.Reg(t, isa.RegSP)-8)
	}

	// Move the program counter back to the access instruction.
	k.M.SetPC(t, instrPC)
	return instrPC, true
}

func isPushM(op isa.Op) bool { return op >= isa.OpPUSHM && op < isa.OpPUSHM+4 }

// firstIsWrite reports whether any AR on the watchpoint begins with a local
// write (the case needing the shadow copy under optimization 3).
func (k *Kernel) firstIsWrite(m *WPMeta) bool {
	for _, ar := range m.ARs {
		if ar.First == hw.Write {
			return true
		}
	}
	return false
}

// armTimeout schedules the suspension timeout for a watchpoint, once per
// arming generation. When it fires with threads still suspended, the ARs
// using the watchpoint are force-terminated, the watchpoint is freed and all
// suspended threads resume (§3.3) — this is what tolerates required
// violations (Figure 5) and breaks suspension deadlocks.
func (k *Kernel) armTimeout(wpIdx int) {
	m := k.Meta[wpIdx]
	if m.TimeoutArmed || k.Cfg.TimeoutTicks == 0 {
		return
	}
	m.TimeoutArmed = true
	k.M.AfterTimeout(k.Cfg.TimeoutTicks, wpIdx, m.Gen)
}

// TimeoutWP delivers a suspension timeout armed by armTimeout. It is
// exported for the VM's typed timer events; gen guards against the
// watchpoint having been freed (and possibly re-armed) since arming.
func (k *Kernel) TimeoutWP(wpIdx int, gen uint64) {
	m := k.Meta[wpIdx]
	if m.Gen != gen {
		return // freed and possibly re-armed since
	}
	m.TimeoutArmed = false
	if len(m.TrapSuspended) == 0 && len(m.BeginSuspended) == 0 {
		return
	}
	k.Stats.Timeouts++
	// Move the watchpoint's ARs to the timed-out table; their end_atomics
	// still record violations, flagged as not prevented.
	// removeFromThread leaves m.ARs alone, so the list is walked in place;
	// FreeWP's reset then keeps its storage for the next arming.
	for _, ar := range m.ARs {
		ar.TimedOut = true
		k.removeFromThread(ar)
		k.thread(ar.Thread).TimedOut[ar.ID] = ar
	}
	k.FreeWP(wpIdx)
}
