package kernel

import "maps"

// Snapshots of the kernel's mutable state (the state struct), used by the
// VM's machine snapshots (vm.Machine.Snapshot). Capture and restore are one
// deep copy, copyFrom, run in opposite directions: Snapshot copies the
// kernel's state out into fresh storage, Restore copies a snapshot's back
// in. The snapshot is never written after capture, so it can be restored
// any number of times — and onto a different Kernel instance, as long as it
// was built with the same Config (same watchpoint count).
//
// ActiveAR instances are shared by pointer between the per-watchpoint
// metadata (Meta[i].ARs) and the per-thread tables; one identity map spans
// the whole copy, so FindAR/detach/FreeWP keep operating on one object per
// dynamic AR on either side.
//
// Restore writes its AR copies into objects it allocated on earlier
// restores (Kernel.arPool) instead of fresh ones, so restoring inside an
// atomic region — every DFS resume — allocates only while the pool grows.
// Overwriting them is safe: a restore rebuilds every table that can hold
// an AR, and no handler holds one across a restore.

// Snapshot is a deep copy of the kernel's mutable state.
type Snapshot struct {
	st    state
	stats Stats // st.Stats points here: one allocation holds both
}

// Snapshot deep-copies the kernel's mutable state.
func (k *Kernel) Snapshot() *Snapshot {
	s := new(Snapshot)
	s.st = newState(len(k.Meta), &s.stats)
	s.st.copyFrom(&k.state, nil)
	return s
}

// Restore rewinds the kernel to a snapshot; the snapshot stays pristine
// and can be restored again.
func (k *Kernel) Restore(s *Snapshot) { k.state.copyFrom(&s.st, &k.arPool) }

// copyFrom makes d a deep copy of s. Canon, the Meta entries and Stats keep
// their identities — only their contents are replaced — so references held
// by the VM and user library stay valid. Existing maps and slices are
// cleared and refilled rather than reallocated: the snapshot engine
// restores thousands of times per campaign, and keeping capacity also lets
// the post-restore run's AR attachments append without growing. AR copies
// come from pool when it is not nil. Whether Stats.MissedByAR is nil is
// copied too.
func (d *state) copyFrom(s *state, pool *[]*ActiveAR) {
	am := arCopier{seen: map[*ActiveAR]*ActiveAR{}, pool: pool}
	d.Canon.CopyFrom(s.Canon)
	for i, sm := range s.Meta {
		dm := d.Meta[i]
		ars, trap, begin := dm.ARs[:0], dm.TrapSuspended[:0], dm.BeginSuspended[:0]
		*dm = *sm
		dm.ARs = am.cloneAll(ars, sm.ARs)
		dm.TrapSuspended = append(trap, sm.TrapSuspended...)
		dm.BeginSuspended = append(begin, sm.BeginSuspended...)
	}
	if n := len(s.threads); n > len(d.threads) {
		d.threads = append(d.threads, make([]*threadState, n-len(d.threads))...)
	} else {
		clear(d.threads[n:])
		d.threads = d.threads[:n]
	}
	for tid, sts := range s.threads {
		if sts == nil {
			d.threads[tid] = nil
			continue
		}
		dts := d.threads[tid]
		if dts == nil {
			dts = &threadState{TimedOut: make(map[int]*ActiveAR, len(sts.TimedOut))}
			d.threads[tid] = dts
		}
		dts.ARs = am.cloneAll(dts.ARs[:0], sts.ARs)
		clear(dts.TimedOut)
		for id, ar := range sts.TimedOut {
			dts.TimedOut[id] = am.clone(ar)
		}
	}
	for addr := range d.mutexes {
		if _, ok := s.mutexes[addr]; !ok {
			delete(d.mutexes, addr)
		}
	}
	for addr, smu := range s.mutexes {
		dmu := d.mutexes[addr]
		if dmu == nil {
			dmu = &mutex{}
			d.mutexes[addr] = dmu
		}
		w := dmu.waiters[:0]
		*dmu = *smu
		dmu.waiters = append(w, smu.waiters...)
	}
	d.begins = s.begins
	clear(d.beginRetries)
	maps.Copy(d.beginRetries, s.beginRetries)
	missed := d.Stats.MissedByAR
	*d.Stats = *s.Stats
	if s.Stats.MissedByAR != nil {
		if missed == nil {
			missed = make(map[int]uint64, len(s.Stats.MissedByAR))
		}
		clear(missed)
		maps.Copy(missed, s.Stats.MissedByAR)
		d.Stats.MissedByAR = missed
	}
}

// arCopier copies ActiveARs for one copyFrom. seen maps each source AR to
// its copy, so an AR reached twice is copied once. With a pool, the n-th
// copy reuses the pool's n-th object, growing the pool when it runs out.
type arCopier struct {
	seen map[*ActiveAR]*ActiveAR
	pool *[]*ActiveAR
	n    int
}

func (am *arCopier) clone(ar *ActiveAR) *ActiveAR {
	if c, ok := am.seen[ar]; ok {
		return c
	}
	var c *ActiveAR
	switch {
	case am.pool == nil:
		c = new(ActiveAR)
	case am.n < len(*am.pool):
		c = (*am.pool)[am.n]
	default:
		c = new(ActiveAR)
		*am.pool = append(*am.pool, c)
	}
	am.n++
	remotes := c.Remotes[:0]
	*c = *ar
	c.Remotes = append(remotes, ar.Remotes...)
	am.seen[ar] = c
	return c
}

// cloneAll appends copies of ars to dst.
func (am *arCopier) cloneAll(dst, ars []*ActiveAR) []*ActiveAR {
	for _, ar := range ars {
		dst = append(dst, am.clone(ar))
	}
	return dst
}
