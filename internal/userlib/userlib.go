// Package userlib implements Kivati's user-space library (§3.4): a replica
// of the AR table and watchpoint metadata that lets begin_atomic and
// end_atomic avoid kernel crossings whenever no hardware watchpoint register
// actually needs to change. In this simulation the replica and the kernel
// state are the same structures (the paper keeps them consistent through a
// shared page); what the library decides is whether a *crossing* — the
// dominant cost — happens.
//
// The four optimizations:
//
//  1. User-space pre-processing: skip the kernel when there is no free
//     watchpoint (log a missed AR), or when an existing watchpoint of this
//     thread already covers the begin's address, size and access type.
//  2. Lazy release: an end_atomic that would free or shrink a watchpoint
//     just marks the user-space copy; the hardware is reconciled on the
//     next kernel entry or trap.
//  3. Local-thread watchpoint disable with shadow-page write replication
//     (configured at arm time by the kernel; the compiler emits the shadow
//     stores).
//  4. Synchronization-variable whitelist: whitelisted ARs return without
//     entering the kernel at all.
package userlib

import (
	"kivati/internal/hw"
	"kivati/internal/kernel"
)

// Decision says how an annotation was handled.
type Decision int

const (
	// EnterKernel: the annotation needs a kernel crossing.
	EnterKernel Decision = iota
	// SkipWhitelisted: whitelisted AR; returned directly from user space.
	SkipWhitelisted
	// SkipUserHandled: fully handled by the user-space library.
	SkipUserHandled
)

// Begin decides how to handle a begin_atomic and performs the user-space
// bookkeeping when the kernel can be skipped.
func Begin(k *kernel.Kernel, t int, syscallPC uint32, arID int, addr uint32, size uint8, watch, first hw.AccessType) Decision {
	if k.Cfg.Opt.UseWhitelist() && k.WL.Contains(arID) {
		k.Stats.WhitelistSkips++
		return SkipWhitelisted
	}
	if !k.Cfg.Opt.UseUserLib() {
		return EnterKernel
	}
	// A re-executed begin for an AR we already hold (loop iteration) is a
	// pure refresh: no hardware change, no crossing.
	if ar := k.FindAR(t, arID); ar != nil && ar.Addr == addr && ar.WP >= 0 {
		k.RefreshAR(ar)
		k.Stats.UserHandled++
		return SkipUserHandled
	}
	// Another thread's AR watches this address: the kernel must suspend
	// us (prevention, §3.3).
	if k.WatchedByOther(t, addr, size, first) >= 0 {
		return EnterKernel
	}
	// An existing watchpoint of ours already covers this begin: attach in
	// user space, no hardware change (optimization 1).
	if idx := k.OwnWP(t, addr); idx >= 0 {
		wp := k.Canon.WPs[idx]
		if wp.Types&watch == watch && wp.Size >= size {
			k.AttachUser(t, syscallPC, arID, addr, size, watch, first, idx)
			k.Stats.MonitoredARs++
			k.Stats.UserHandled++
			return SkipUserHandled
		}
		return EnterKernel // needs a type/size upgrade
	}
	// No watchpoint register free — the armed count saturates the table —
	// so log the missed AR in user space and skip the crossing
	// (optimization 1). Stale registers are only reclaimable in the
	// kernel, so their presence forces a crossing. Elided operations here
	// leave registers armed (live or stale), keeping the armed summary
	// nonzero so blocks whose footprint overlaps those registers keep
	// running checked — exactly right, since they can still trap.
	if k.Canon.FreeIndex() < 0 {
		if k.HasStale() {
			return EnterKernel
		}
		k.Stats.RecordMissed(arID)
		k.Stats.UserHandled++
		return SkipUserHandled
	}
	return EnterKernel // arm a fresh watchpoint
}

// End decides how to handle an end_atomic and performs the user-space
// bookkeeping when the kernel can be skipped.
func End(k *kernel.Kernel, t int, arID int, second hw.AccessType) Decision {
	if k.Cfg.Opt.UseWhitelist() && k.WL.Contains(arID) {
		k.Stats.WhitelistSkips++
		return SkipWhitelisted
	}
	if !k.Cfg.Opt.UseUserLib() {
		return EnterKernel
	}
	ar := k.FindAR(t, arID)
	if ar == nil {
		if k.HasTimedOut(t, arID) {
			return EnterKernel // must record the unprevented violation
		}
		// No matching begin_atomic executed (or the AR was unmonitored):
		// skip the crossing (optimization 1).
		k.Stats.UserHandled++
		return SkipUserHandled
	}
	if k.NeedsKernel(ar) {
		// Violation evaluation and thread wakeups are kernel work.
		return EnterKernel
	}
	// Pure release: detach in user space; a freed watchpoint is left
	// armed and marked stale, a shrunken union is left at the more
	// aggressive setting (optimization 2).
	k.DetachUser(ar)
	k.Stats.UserHandled++
	return SkipUserHandled
}

// Clear decides how to handle a clear_ar.
func Clear(k *kernel.Kernel, t int, depth int) Decision {
	if !k.Cfg.Opt.UseUserLib() {
		return EnterKernel
	}
	any := false
	for _, ar := range k.ActiveARs(t) {
		if ar.Depth < depth {
			continue
		}
		any = true
		if k.NeedsKernel(ar) {
			return EnterKernel
		}
	}
	if k.AnyTimedOutAtDepth(t, depth) {
		return EnterKernel
	}
	if !any {
		k.Stats.UserHandled++
		return SkipUserHandled
	}
	k.ClearDepth(t, depth, true)
	k.Stats.UserHandled++
	return SkipUserHandled
}
