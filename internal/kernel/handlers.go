package kernel

import (
	"sort"

	"kivati/internal/hw"
	"kivati/internal/interleave"
	"kivati/internal/trace"
)

// BeginAtomic is the kernel half of the begin_atomic system call (§3.2,
// §3.3). syscallPC is the PC of the SYS instruction itself, so a suspended
// thread retries the call when resumed.
func (k *Kernel) BeginAtomic(t int, syscallPC uint32, arID int, addr uint32, size uint8, watch, first hw.AccessType) {
	k.Stats.BeginKernel++
	if k.Cfg.Opt.NullOp() {
		return
	}
	k.ReconcileStale()

	// A re-executed begin for an AR already active in this thread (a loop
	// iteration re-evaluating the begin before the matching end ran) is
	// idempotent: the AR ID is already on the watchpoint's list (§3.2).
	// The watchpoint stays armed — this is what lets the suspension
	// timeout mature for remote threads trapped by loop-resident ARs
	// (Figure 5). Only an address change (pointer-based AR) re-arms.
	if old := k.FindAR(t, arID); old != nil {
		if old.Addr == addr && old.WP >= 0 {
			k.RefreshAR(old)
			k.maybePause(t)
			return
		}
		k.detach(old)
	}

	// Prevention: if the address is being watched by another thread's
	// ARs, this thread is a remote about to access that shared variable —
	// suspend it until those ARs complete (§3.3).
	if idx := k.WatchedByOther(t, addr, size, first); idx >= 0 {
		// A remote access can be detected via a begin_atomic as well as
		// via a watchpoint (§2.2): record the access this thread is about
		// to make against the ARs it would interrupt. Past the retry bound
		// the thread is no longer delayed (the analog of the 10 ms timeout
		// for trap-suspended threads; prevents livelock when the watching
		// AR is re-begun every loop iteration), and the access is recorded
		// as not reordered.
		key := [2]int{t, arID}
		k.beginRetries[key]++
		rec := RemoteRec{Thread: t, PC: syscallPC, Type: first, Tick: k.M.Now(),
			Undone: k.beginRetries[key] <= maxBeginRetries}
		k.recordRemote(rec, idx)
		if rec.Undone {
			k.M.SetPC(t, syscallPC) // retry the begin_atomic on wake
			k.suspendOn(t, idx, BlockBegin)
			return
		}
		k.Stats.BeginRetryGiveUps++
	}
	delete(k.beginRetries, [2]int{t, arID})

	// Attach to this thread's existing watchpoint on the same address,
	// updating types and size to the most aggressive union (§3.2).
	if idx := k.OwnWP(t, addr); idx >= 0 {
		wp := k.Canon.WPs[idx]
		union := wp
		union.Types |= watch
		union.Size = max(wp.Size, size)
		if union != wp {
			k.reprogram(idx, union)
			// The wider register traps what it let through: re-record.
			k.saveValue(k.Meta[idx], addr, union.Size, first)
			k.waitForEpoch(t)
		}
		k.attachAR(t, syscallPC, arID, addr, size, watch, first, idx)
		k.maybePause(t)
		return
	}

	// Arm a free watchpoint, if any.
	idx := k.Canon.FreeIndex()
	if idx < 0 {
		// All watchpoints in use by other threads: log that this AR
		// cannot be monitored (§3.2, quantified in Tables 8 and 9).
		k.Stats.RecordMissed(arID)
		return
	}
	local := -1
	if k.localDisable() || k.Cfg.TrapBefore {
		local = t
	}
	k.Canon.Set(idx, hw.Watchpoint{
		Addr: addr, Size: size, Types: watch, Armed: true, Owner: t, LocalOf: local,
	})
	k.Canon.Epoch++
	k.Meta[idx].Gen++
	k.saveValue(k.Meta[idx], addr, size, first)
	k.attachAR(t, syscallPC, arID, addr, size, watch, first, idx)
	k.M.EpochChanged()
	k.waitForEpoch(t)
	k.maybePause(t)
}

// attachAR records a new active AR on watchpoint idx.
func (k *Kernel) attachAR(t int, syscallPC uint32, arID int, addr uint32, size uint8, watch, first hw.AccessType, idx int) {
	ar := &ActiveAR{
		ID:      arID,
		Thread:  t,
		Depth:   k.M.ThreadDepth(t),
		Addr:    addr,
		Size:    size,
		Watch:   watch,
		First:   first,
		BeginPC: syscallPC,
		Start:   k.M.Now(),
		WP:      idx,
	}
	if k.arInfo != nil {
		ar.Static = k.arInfo(arID)
	}
	k.thread(t).ARs = append(k.thread(t).ARs, ar)
	k.Meta[idx].ARs = append(k.Meta[idx].ARs, ar)
	k.Stats.MonitoredARs++
}

// RecaptureSaved re-records the rollback values for all of a thread's ARs.
// The VM calls it when the thread's begin_atomic wait (cross-core watchpoint
// propagation, or a bug-finding pause) completes — the moment the thread
// actually enters its AR. Capturing only at arm time would race: a remote
// core that has not yet taken up the new watchpoint can store to the variable
// without trapping, leaving the recorded rollback value stale, and a later
// undo would then *introduce* an inconsistency instead of preventing one.
func (k *Kernel) RecaptureSaved(t int) {
	for _, ar := range k.thread(t).ARs {
		if ar.WP < 0 {
			continue
		}
		m := k.Meta[ar.WP]
		if m.Stale || m.Guard || len(m.ARs) == 0 || m.ARs[0].Thread != t {
			continue
		}
		if wp := k.Canon.WPs[ar.WP]; wp.Armed {
			k.saveValue(m, wp.Addr, wp.Size, ar.First)
		}
	}
}

// RefreshAR renews an already-active AR on a re-executed begin_atomic: the
// start time, call depth and saved rollback value are updated in place, with
// no watchpoint change.
func (k *Kernel) RefreshAR(ar *ActiveAR) {
	ar.Start = k.M.Now()
	ar.Depth = k.M.ThreadDepth(ar.Thread)
	if ar.WP >= 0 {
		wp := k.Canon.WPs[ar.WP]
		k.saveValue(k.Meta[ar.WP], wp.Addr, wp.Size, ar.First)
	}
}

// saveValue records a watchpoint's rollback value from memory at
// [addr, addr+size). For an AR whose first access is a write under shadow
// writes it also initializes the shadow slot, so the undo value is defined
// even before the first local write executes.
func (k *Kernel) saveValue(m *WPMeta, addr uint32, size uint8, first hw.AccessType) {
	m.SavedValue = k.M.Load(addr, size)
	m.HasSaved = true
	if first == hw.Write && k.Cfg.ShadowDelta != 0 {
		k.M.Store(addr+k.Cfg.ShadowDelta, size, m.SavedValue)
	}
}

// AttachUser is the user-space attach path (optimization 1): the AR joins an
// existing watchpoint whose configuration already covers it, with no
// hardware change and no kernel crossing. The user library refreshes the
// saved value, which lives in the shared page.
func (k *Kernel) AttachUser(t int, syscallPC uint32, arID int, addr uint32, size uint8, watch, first hw.AccessType, idx int) {
	if old := k.FindAR(t, arID); old != nil {
		if old.Addr == addr && old.WP == idx {
			k.RefreshAR(old)
			return
		}
		k.DetachUser(old)
	}
	k.attachAR(t, syscallPC, arID, addr, size, watch, first, idx)
	k.saveValue(k.Meta[idx], addr, size, first)
}

// waitForEpoch blocks the thread until every core has taken up the new
// canonical watchpoint state. Rather than interrupting other cores, they
// update opportunistically on their next kernel entry (§3.2).
func (k *Kernel) waitForEpoch(t int) {
	k.Stats.EpochWaits++
	k.M.SetEpochTarget(t, k.Canon.Epoch)
	k.M.Suspend(t, BlockEpoch)
}

// maybePause implements bug-finding mode's artificial AR stretching (§2.3),
// sampled every PauseEvery monitored begins.
func (k *Kernel) maybePause(t int) {
	if k.Cfg.Mode != BugFinding || k.Cfg.PauseEvery == 0 || k.Cfg.PauseTicks == 0 {
		return
	}
	k.begins++
	if k.begins%k.Cfg.PauseEvery != 0 {
		return
	}
	k.Stats.Pauses++
	k.M.SetWakeAt(t, k.M.Now()+k.Cfg.PauseTicks)
	k.M.Suspend(t, BlockPause)
}

// EndAtomic is the kernel half of the end_atomic system call: violation
// evaluation and watchpoint release (§3.2).
func (k *Kernel) EndAtomic(t int, arID int, second hw.AccessType) {
	k.Stats.EndKernel++
	if k.Cfg.Opt.NullOp() {
		return
	}
	k.evalEnd(t, arID, second)
}

// evalEnd is shared between the kernel path and the user-space path (the
// user library calls it directly when it can complete the end without a
// crossing).
func (k *Kernel) evalEnd(t int, arID int, second hw.AccessType) {
	ts := k.thread(t)
	if ar, ok := ts.TimedOut[arID]; ok {
		// The AR was force-terminated by the timeout; still record the
		// violation, noting it was not prevented (§2.2).
		delete(ts.TimedOut, arID)
		k.checkViolation(ar, second, false)
		return
	}
	ar := k.FindAR(t, arID)
	if ar == nil {
		// No matching begin_atomic (unmonitored AR or control flow that
		// skipped the begin): the end_atomic has no effect.
		return
	}
	k.checkViolation(ar, second, true)
	k.detach(ar)
}

// checkViolation applies the Figure 2 serializability test to the remote
// accesses recorded during the AR.
func (k *Kernel) checkViolation(ar *ActiveAR, second hw.AccessType, prevented bool) {
	for _, r := range ar.Remotes {
		if !interleave.Violation(ar.First, second, []hw.AccessType{r.Type}) {
			continue
		}
		v := trace.Violation{
			ARID:         ar.ID,
			Addr:         ar.Addr,
			LocalThread:  ar.Thread,
			BeginPC:      ar.BeginPC,
			EndPC:        k.M.PC(ar.Thread),
			First:        ar.First,
			Second:       second,
			RemoteThread: r.Thread,
			RemotePC:     r.PC,
			RemoteType:   r.Type,
			Tick:         k.M.Now(),
			Prevented:    prevented && r.Undone && !ar.TimedOut,
		}
		if ar.Static != nil {
			v.Func = ar.Static.Func
			v.Var = ar.Static.Key.String()
		}
		if k.Symbolize != nil {
			v.SrcLine = k.Symbolize(r.PC)
		}
		k.Log.Add(v)
	}
}

// detach removes an AR and releases or reconfigures its watchpoint,
// resuming suspended threads when the watchpoint frees.
func (k *Kernel) detach(ar *ActiveAR) {
	k.removeFromThread(ar)
	if ar.WP < 0 {
		return
	}
	m := k.Meta[ar.WP]
	removeAR(m, ar)
	if len(m.ARs) == 0 {
		k.FreeWP(ar.WP)
		return
	}
	// Reconfigure to the union of the remaining ARs (§3.2).
	wp := k.Canon.WPs[ar.WP]
	union := wp
	union.Types, union.Size = 0, 0
	for _, a := range m.ARs {
		union.Types |= a.Watch
		union.Size = max(union.Size, a.Size)
	}
	if union != wp {
		k.reprogram(ar.WP, union)
	}
}

// reprogram sets canonical watchpoint register i to wp and tells the
// machine the canonical state changed.
func (k *Kernel) reprogram(i int, wp hw.Watchpoint) {
	k.Canon.Set(i, wp)
	k.Canon.Epoch++
	k.M.EpochChanged()
}

// DetachUser is the user-space detach path (optimization 2): the AR is
// removed from the replica; if it was the last AR the hardware watchpoint
// is left armed but marked stale, and if the remaining union shrinks the
// hardware is left at the more aggressive setting. Either way, no kernel
// crossing happens; the hardware is reconciled on the next kernel entry or
// trap.
func (k *Kernel) DetachUser(ar *ActiveAR) {
	k.removeFromThread(ar)
	if ar.WP < 0 {
		return
	}
	m := k.Meta[ar.WP]
	removeAR(m, ar)
	if len(m.ARs) == 0 {
		m.Stale = true
	}
}

func (k *Kernel) removeFromThread(ar *ActiveAR) {
	ts := k.thread(ar.Thread)
	for i, a := range ts.ARs {
		if a == ar {
			ts.ARs = append(ts.ARs[:i], ts.ARs[i+1:]...)
			return
		}
	}
}

func removeAR(m *WPMeta, ar *ActiveAR) {
	for i, a := range m.ARs {
		if a == ar {
			m.ARs = append(m.ARs[:i], m.ARs[i+1:]...)
			return
		}
	}
}

// FreeWP disarms a watchpoint and resumes its suspended threads: threads
// blocked by watchpoint traps are resumed before threads blocked in their
// own begin_atomic (§3.3).
func (k *Kernel) FreeWP(idx int) {
	m := k.Meta[idx]
	trapBlocked := m.TrapSuspended
	beginBlocked := m.BeginSuspended
	k.disarm(idx)
	for _, t := range trapBlocked {
		k.M.Resume(t)
		k.releaseGuards(t)
	}
	for _, t := range beginBlocked {
		k.M.Resume(t) // retries its begin_atomic (PC was rewound)
	}
}

// releaseGuards frees any leak-guard watchpoints owned by a resumed thread:
// the thread will re-execute the leaking instruction, overwriting the leaked
// value.
func (k *Kernel) releaseGuards(t int) {
	for i, m := range k.Meta {
		if m.Guard && m.GuardOwner == t {
			guardWaiters := m.TrapSuspended
			k.disarm(i)
			for _, w := range guardWaiters {
				k.M.Resume(w)
				k.releaseGuards(w)
			}
		}
	}
}

// ClearAR is the kernel half of the clear_ar annotation inserted at every
// subroutine exit: it terminates all ARs begun at or below the current call
// depth. No violations are reported for cleared ARs (§3.2).
func (k *Kernel) ClearAR(t int) {
	k.Stats.ClearKernel++
	if k.Cfg.Opt.NullOp() {
		return
	}
	k.ClearDepth(t, k.M.ThreadDepth(t), false)
}

// ClearDepth terminates the thread's ARs begun at or below the given call
// depth and drops matching timed-out records. With lazy set it is clear_ar
// performed entirely in user space (each AR leaves through DetachUser, so
// a freed watchpoint is only marked stale); otherwise each AR leaves
// through the kernel's detach.
func (k *Kernel) ClearDepth(t, depth int, lazy bool) {
	ts := k.thread(t)
	for i := 0; i < len(ts.ARs); {
		ar := ts.ARs[i]
		switch {
		case ar.Depth < depth:
		case lazy:
			k.DetachUser(ar)
		default:
			k.detach(ar)
		}
		// A detach removes ar, shifting the rest down into slot i.
		if i < len(ts.ARs) && ts.ARs[i] == ar {
			i++
		}
	}
	for id, ar := range ts.TimedOut {
		if ar.Depth >= depth {
			delete(ts.TimedOut, id)
		}
	}
}

// ThreadExited cleans up after a terminated thread: its ARs are detached
// (freeing watchpoints and waking suspended remotes) and any locks it held
// are force-released.
func (k *Kernel) ThreadExited(t int) {
	k.ClearDepth(t, 0, false)
	// Force-release in ascending address order: unlocking wakes waiters,
	// and Go's map iteration order would otherwise make the wake sequence
	// — and therefore every replayed schedule — nondeterministic.
	var held []uint32
	for addr, mu := range k.mutexes {
		if mu.held && mu.owner == t {
			held = append(held, addr)
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
	for _, addr := range held {
		k.unlock(t, addr)
	}
}

// Lock implements the lock() syscall over an address-keyed kernel mutex.
func (k *Kernel) Lock(t int, addr uint32) {
	mu := k.mutexes[addr]
	if mu == nil {
		mu = &mutex{}
		k.mutexes[addr] = mu
	}
	if !mu.held {
		mu.held, mu.owner = true, t
		return
	}
	mu.waiters = append(mu.waiters, t)
	k.Stats.LocksBlocked++
	k.M.Suspend(t, BlockLock)
}

// Unlock implements the unlock() syscall. Unlocking a mutex the thread does
// not hold is ignored (matching pthreads' undefined behavior, benignly).
func (k *Kernel) Unlock(t int, addr uint32) {
	mu := k.mutexes[addr]
	if mu == nil || !mu.held || mu.owner != t {
		return
	}
	k.unlock(t, addr)
}

// MutexState reports a mutex's holder and waiter count (for tests and
// diagnostics). held is false if the mutex does not exist or is free.
func (k *Kernel) MutexState(addr uint32) (held bool, owner int, waiters int) {
	mu := k.mutexes[addr]
	if mu == nil {
		return false, -1, 0
	}
	return mu.held, mu.owner, len(mu.waiters)
}

func (k *Kernel) unlock(t int, addr uint32) {
	mu := k.mutexes[addr]
	if len(mu.waiters) > 0 {
		next := mu.waiters[0]
		mu.waiters = mu.waiters[1:]
		mu.owner = next
		k.M.Resume(next)
		return
	}
	mu.held = false
}
