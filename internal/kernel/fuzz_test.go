package kernel

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kivati/internal/hw"
)

// TestKernelStateFuzz drives the kernel with random operation sequences and
// checks structural invariants after every step:
//
//  1. every armed, non-stale, non-guard watchpoint carries at least one AR;
//  2. AR lists are consistent: an AR on a watchpoint appears in its thread's
//     table with a matching WP index, and vice versa;
//  3. no AR is attached to two watchpoints;
//  4. a disarmed register has no metadata left behind;
//  5. undo fidelity: an undone write leaves memory holding the value the
//     write replaced (checkUndoFidelity).
//
// Every third seed runs before-access trap delivery (TrapBefore), which
// delivers HandleTrapBefore only where the canonical registers report a
// hit, as the VM does. Under OptOptimized the user-space entry points
// (AttachUser, DetachUser, and ClearDepth in its lazy form) run wherever the user library would
// call them. At random steps the kernel is snapshotted: the snapshot is
// restored into a second kernel with the same Config at once and into the
// source kernel after more operations, and both must hold the invariants
// and equal the source's state at capture time.
func TestKernelStateFuzz(t *testing.T) {
	addrs := []uint32{0x100, 0x108, 0x110, 0x118, 0x120}
	types := []hw.AccessType{hw.Read, hw.Write, hw.ReadWrite}

	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			NumWatchpoints: 2 + rng.Intn(3),
			TimeoutTicks:   500,
			Opt:            []OptLevel{OptBase, OptOptimized}[rng.Intn(2)],
			TrapBefore:     seed%3 == 0,
		}
		if cfg.Opt == OptOptimized && rng.Intn(2) == 0 {
			cfg.ShadowDelta = 0x4000
		}
		k, m := newKernelWithMock(cfg)
		stPC, pushmPC, ldPC := buildMockCode(t, m)
		// Trapping instructions the undo engine can reverse, with the
		// access each one makes.
		undoable := []struct {
			pc  uint32
			typ hw.AccessType
		}{{stPC, hw.Write}, {pushmPC, hw.Read}, {ldPC, hw.Read}}
		var (
			snap    *Snapshot
			snapMem *mockMachine // the machine state captured with snap
			want    string       // the source kernel's state at capture time
		)
		for step := 0; step < 400; step++ {
			tid := rng.Intn(4)
			switch rng.Intn(13) {
			case 0, 1, 2:
				k.BeginAtomic(tid, uint32(rng.Intn(64)), 1+rng.Intn(12),
					addrs[rng.Intn(len(addrs))], 8,
					types[rng.Intn(len(types))], types[rng.Intn(2)+0]|hw.Read>>uint(rng.Intn(1)))
			case 3, 4:
				k.EndAtomic(tid, 1+rng.Intn(12), types[rng.Intn(2)])
			case 5:
				m.depths[tid] = rng.Intn(3)
				k.ClearAR(tid)
			case 6:
				// Deliver a trap with a random access: on a random register
				// after the access, or where the registers match before it.
				acc := Access{Addr: addrs[rng.Intn(len(addrs))], Size: 8, Type: types[rng.Intn(2)]}
				pc := uint32(rng.Intn(64))
				if !cfg.TrapBefore && rng.Intn(2) == 0 {
					// A trap the boundary table can trace back to its
					// instruction, so the undo succeeds, often on a watched
					// variable. A write commits a fresh value first, as the
					// hardware does. (A guard watches its owner's stack
					// slot, which no other thread writes; the mock gives
					// every thread the same stack pointer, so guards are
					// not picked.)
					u := undoable[rng.Intn(len(undoable))]
					acc.Type = u.typ
					if i := rng.Intn(len(k.Canon.WPs)); k.Canon.WPs[i].Armed && !k.Meta[i].Guard {
						acc.Addr = k.Canon.WPs[i].Addr
					}
					m.lastPC[tid] = u.pc
					pc = u.pc + uint32(m.decoded[u.pc].Len)
					m.pcs[tid] = pc
					pre := m.Load(acc.Addr, acc.Size)
					if acc.Type == hw.Write {
						m.Store(acc.Addr, acc.Size, uint64(1000+step))
					}
					k.HandleTrap(tid, pc, acc)
					checkUndoFidelity(t, m, cfg, tid, u.pc, acc, pre, seed, step)
				} else if !cfg.TrapBefore {
					k.HandleTrap(tid, pc, acc)
				} else if k.Canon.Match(tid, acc.Addr, acc.Size, acc.Type) >= 0 {
					k.HandleTrapBefore(tid, pc, acc)
				}
			case 7:
				// Advance time: fire pending timeouts.
				m.advance(m.now + uint64(rng.Intn(800)))
			case 8:
				// Resume a random blocked thread (scheduler activity).
				// A thread whose begin_atomic wait completes enters its AR
				// and recaptures its rollback values, as the VM does.
				for bt, kind := range m.blocked {
					m.Resume(bt)
					if kind == BlockEpoch || kind == BlockPause {
						k.RecaptureSaved(bt)
					}
					break
				}
			case 9:
				if rng.Intn(6) == 0 {
					k.ThreadExited(tid)
				} else {
					k.ReconcileStale()
				}
			case 10:
				if cfg.Opt == OptOptimized {
					userOp(k, m, rng, tid, addrs[rng.Intn(len(addrs))], types)
				}
			case 11:
				if lock := uint32(0x200 + 8*rng.Intn(2)); rng.Intn(2) == 0 {
					k.Lock(tid, lock)
				} else {
					k.Unlock(tid, lock)
				}
			case 12:
				if snap == nil || rng.Intn(2) == 0 {
					snap, snapMem, want = k.Snapshot(), m.clone(), stateView(k)
					ref := New(cfg, nil, nil, nil)
					ref.Restore(snap)
					checkRestored(t, ref, want, seed, step, "fresh kernel")
				} else {
					k.Restore(snap)
					*m = *snapMem.clone()
					checkRestored(t, k, want, seed, step, "source kernel")
				}
			}
			checkInvariants(t, k, seed, step)
			if t.Failed() {
				return
			}
		}
	}
}

// userOp performs one user-space annotation the way the user library does
// under OptOptimized: attach to a covering watchpoint of the thread's own,
// or detach or clear ARs whose termination is not kernel work.
func userOp(k *Kernel, m *mockMachine, rng *rand.Rand, tid int, addr uint32, types []hw.AccessType) {
	switch rng.Intn(3) {
	case 0:
		watch, first := types[rng.Intn(len(types))], types[rng.Intn(2)]
		idx := k.OwnWP(tid, addr)
		if idx < 0 || k.WatchedByOther(tid, addr, 8, first) >= 0 {
			return
		}
		if wp := k.Canon.WPs[idx]; wp.Types&watch == watch && wp.Size >= 8 {
			k.AttachUser(tid, uint32(rng.Intn(64)), 1+rng.Intn(12), addr, 8, watch, first, idx)
		}
	case 1:
		ars := k.ActiveARs(tid)
		if len(ars) == 0 {
			return
		}
		if ar := ars[rng.Intn(len(ars))]; !k.NeedsKernel(ar) && !k.HasTimedOut(tid, ar.ID) {
			k.DetachUser(ar)
		}
	case 2:
		depth := rng.Intn(3)
		m.depths[tid] = depth
		for _, ar := range k.ActiveARs(tid) {
			if ar.Depth >= depth && k.NeedsKernel(ar) {
				return
			}
		}
		if !k.AnyTimedOutAtDepth(tid, depth) {
			k.ClearDepth(tid, depth, true)
		}
	}
}

// clone copies the mock's time, memory, blocked threads, PCs, call depths
// and pending timeouts: what a VM snapshot captures next to the kernel's.
func (m *mockMachine) clone() *mockMachine {
	c := *m
	c.pcs, c.depths, c.blocked = maps.Clone(m.pcs), maps.Clone(m.depths), maps.Clone(m.blocked)
	c.events = slices.Clone(m.events)
	return &c
}

// checkRestored checks a kernel just restored from a snapshot: the
// invariants hold and its state equals the source's at capture time.
func checkRestored(t *testing.T, k *Kernel, want string, seed int64, step int, into string) {
	t.Helper()
	got := stateView(k)
	checkInvariants(t, k, seed, step)
	if got != want {
		t.Errorf("seed %d step %d: snapshot restored into the %s differs from the source at capture\n got: %s\nwant: %s",
			seed, step, into, got, want)
	}
}

// stateView renders a kernel's mutable state by value (ARs, thread tables
// and mutexes dereferenced; nil and empty slices alike) so two kernels can
// be compared for deep equality. Whether Stats.MissedByAR is nil is part of
// the state.
func stateView(k *Kernel) string {
	arsView := func(ars []*ActiveAR) []ActiveAR {
		var out []ActiveAR
		for _, ar := range ars {
			out = append(out, *ar)
		}
		return out
	}
	var b strings.Builder
	c := k.Canon
	lo, hi, ok := c.Window()
	fmt.Fprintf(&b, "canon %+v epoch=%d muts=%d armed=%d window=[%#x,%#x) %v\n",
		c.WPs, c.Epoch, c.Muts(), c.ArmedCount(), lo, hi, ok)
	for i, wm := range k.Meta {
		v := *wm
		v.ARs = nil
		fmt.Fprintf(&b, "wp%d %+v ARs=%+v\n", i, v, arsView(wm.ARs))
	}
	for tid, ts := range k.threads {
		if ts == nil {
			continue
		}
		timedOut := map[int]ActiveAR{}
		for id, ar := range ts.TimedOut {
			timedOut[id] = *ar
		}
		fmt.Fprintf(&b, "thread%d ARs=%+v timedOut=%+v\n", tid, arsView(ts.ARs), timedOut)
	}
	mutexes := map[uint32]mutex{}
	for addr, mu := range k.mutexes {
		mutexes[addr] = *mu
	}
	fmt.Fprintf(&b, "mutexes=%+v begins=%d beginRetries=%v\n", mutexes, k.begins, k.beginRetries)
	fmt.Fprintf(&b, "stats %+v missedByARNil=%v\n", *k.Stats, k.Stats.MissedByAR == nil)
	return b.String()
}

// checkUndoFidelity checks invariant 5 after a trap on a write the undo
// engine can reverse: if the handler rewound the thread to the access
// instruction at instrPC, memory must hold pre again. Under optimization 3
// the rollback value comes from the shadow page, which compiled code keeps
// current with replicated stores the mock does not make, so those seeds
// skip the check.
func checkUndoFidelity(t *testing.T, m *mockMachine, cfg Config, tid int, instrPC uint32, acc Access, pre uint64, seed int64, step int) {
	t.Helper()
	if acc.Type != hw.Write || cfg.ShadowDelta != 0 || m.pcs[tid] != instrPC {
		return
	}
	if got := m.Load(acc.Addr, acc.Size); got != pre {
		t.Errorf("seed %d step %d: undone write by thread %d at %#x left %d, want the pre-write %d",
			seed, step, tid, acc.Addr, got, pre)
	}
}

func checkInvariants(t *testing.T, k *Kernel, seed int64, step int) {
	t.Helper()
	seen := map[*ActiveAR]int{}
	for i := range k.Canon.WPs {
		wp := k.Canon.WPs[i]
		m := k.Meta[i]
		if wp.Armed && !m.Stale && !m.Guard && len(m.ARs) == 0 {
			t.Errorf("seed %d step %d: wp%d armed with no ARs (%+v)", seed, step, i, wp)
		}
		if !wp.Armed {
			if len(m.ARs) != 0 || len(m.TrapSuspended) != 0 || len(m.BeginSuspended) != 0 || m.Stale || m.Guard {
				t.Errorf("seed %d step %d: wp%d disarmed but metadata persists: %+v", seed, step, i, m)
			}
		}
		for _, ar := range m.ARs {
			if prev, dup := seen[ar]; dup {
				t.Errorf("seed %d step %d: AR%d on wp%d and wp%d", seed, step, ar.ID, prev, i)
			}
			seen[ar] = i
			if ar.WP != i {
				t.Errorf("seed %d step %d: AR%d thinks it is on wp%d, found on wp%d", seed, step, ar.ID, ar.WP, i)
			}
			// It must be in its thread's table.
			found := false
			for _, ta := range k.ActiveARs(ar.Thread) {
				if ta == ar {
					found = true
				}
			}
			if !found {
				t.Errorf("seed %d step %d: AR%d on wp%d missing from thread %d's table", seed, step, ar.ID, i, ar.Thread)
			}
		}
	}
	// Every AR in a thread table with WP >= 0 must be on that watchpoint.
	for tid := 0; tid < 4; tid++ {
		for _, ar := range k.ActiveARs(tid) {
			if ar.WP < 0 {
				continue
			}
			found := false
			for _, wa := range k.Meta[ar.WP].ARs {
				if wa == ar {
					found = true
				}
			}
			if !found {
				t.Errorf("seed %d step %d: thread %d AR%d claims wp%d but is not on it", seed, step, tid, ar.ID, ar.WP)
			}
		}
	}
}
