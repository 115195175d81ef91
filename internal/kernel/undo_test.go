package kernel

import (
	"testing"

	"kivati/internal/hw"
	"kivati/internal/isa"
)

// Kernel-level undo tests over a hand-built code image and the mock
// machine: the boundary-table rollback, the write restore, the shadow-page
// path, the PUSHM leak guard, and the refusal paths.

// buildMockCode assembles a tiny image and installs it in the mock: a store
// to 0x100, a PUSHM from 0x100, and a load from 0x100, each labeled.
func buildMockCode(t *testing.T, m *mockMachine) (stPC, pushmPC, ldPC uint32) {
	t.Helper()
	e := isa.NewEncoder()
	stPC = e.PC()
	e.Store(0x100, 3, 8)
	pushmPC = e.PC()
	e.PushMem(0x100, 8)
	ldPC = e.PC()
	e.Load(2, 0x100, 8)
	e.Hlt()
	code, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	bt, err := isa.Preprocess(code, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.boundary = bt
	for pc := uint32(0); int(pc) < len(code); {
		in, err := isa.Decode(code, pc)
		if err != nil {
			t.Fatal(err)
		}
		m.decoded[pc] = in
		pc += uint32(in.Len)
	}
	return stPC, pushmPC, ldPC
}

func TestUndoRemoteWriteRestoresSavedValue(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	stPC, _, _ := buildMockCode(t, m)

	m.Store(0x100, 8, 7)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.ReadWrite, hw.Read) // SavedValue = 7
	// Thread 2 commits a store (value 99), then the trap is delivered with
	// the post-instruction PC.
	m.Store(0x100, 8, 99)
	nextPC := stPC + 6 // ST is 6 bytes
	m.lastPC[2] = stPC
	m.pcs[2] = nextPC
	k.HandleTrap(2, nextPC, Access{Addr: 0x100, Size: 8, Type: hw.Write})

	if got := m.Load(0x100, 8); got != 7 {
		t.Errorf("memory = %d, want 7 (rolled back)", got)
	}
	if m.pcs[2] != stPC {
		t.Errorf("PC = %#x, want rewound to %#x", m.pcs[2], stPC)
	}
	if m.blocked[2] != BlockTrap {
		t.Errorf("thread 2 block = %v, want BlockTrap", m.blocked[2])
	}
	ar := k.FindAR(1, 1)
	if len(ar.Remotes) != 1 || !ar.Remotes[0].Undone || ar.Remotes[0].PC != stPC {
		t.Errorf("remote record = %+v", ar.Remotes)
	}
	// End: W between R..W is the lost-update case; prevented.
	k.EndAtomic(1, 1, hw.Write)
	if len(k.Log.Violations) != 1 || !k.Log.Violations[0].Prevented {
		t.Errorf("violations = %v", k.Log.Violations)
	}
	if _, still := m.blocked[2]; still {
		t.Error("remote not resumed at end_atomic")
	}
}

func TestUndoUsesShadowPageUnderOpt3(t *testing.T) {
	const delta = 0x1000
	k, m := newKernelWithMock(Config{
		NumWatchpoints: 4, TimeoutTicks: 1000,
		Opt: OptOptimized, ShadowDelta: delta,
	})
	stPC, _, _ := buildMockCode(t, m)

	m.Store(0x100, 8, 3)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.ReadWrite, hw.Write)
	// Begin initialized the shadow slot; the local first write then updates
	// it (the compiler-emitted replica store).
	if got := m.Load(0x100+delta, 8); got != 3 {
		t.Fatalf("shadow init = %d, want 3", got)
	}
	m.Store(0x100, 8, 50)       // local first write (untrapped: opt3)
	m.Store(0x100+delta, 8, 50) // the replicated shadow store

	// Remote write commits, trap delivered.
	m.Store(0x100, 8, 99)
	m.lastPC[2] = stPC
	m.pcs[2] = stPC + 6
	k.HandleTrap(2, stPC+6, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	if got := m.Load(0x100, 8); got != 50 {
		t.Errorf("memory = %d, want 50 (restored from shadow)", got)
	}
}

// TestUndoneWriteIsNoRollbackValue: two threads hold ARs on one variable
// (each watches only writes and begins with a read, so neither begin
// conflicts with the other). A write by thread 2 is local to its own
// watchpoint and remote to thread 1's, so it is undone; the undone value
// must not become thread 2's rollback value, or a later undo of thread 1's
// write would restore a value the first undo already removed.
func TestUndoneWriteIsNoRollbackValue(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	stPC, _, _ := buildMockCode(t, m)
	m.Store(0x100, 8, 7)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	k.BeginAtomic(2, 0, 2, 0x100, 8, hw.Write, hw.Read)
	if k.FindAR(1, 1).WP == k.FindAR(2, 2).WP {
		t.Fatal("the two ARs share a watchpoint; want one each")
	}
	write := func(tid int, v uint64) {
		m.Store(0x100, 8, v)
		m.lastPC[tid] = stPC
		m.pcs[tid] = stPC + 6
		k.HandleTrap(tid, stPC+6, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	}
	write(2, 99)
	if got := m.Load(0x100, 8); got != 7 {
		t.Fatalf("after thread 2's write: memory = %d, want 7 (undone)", got)
	}
	if wm := k.Meta[k.FindAR(2, 2).WP]; wm.SavedValue != 7 {
		t.Errorf("thread 2's rollback value = %d, want 7: the undone write was recorded", wm.SavedValue)
	}
	write(1, 55)
	if got := m.Load(0x100, 8); got != 7 {
		t.Errorf("after thread 1's write: memory = %d, want 7 (the value before the undone write)", got)
	}
}

// TestUnionUpgradeRecordsRollbackValue: a watchpoint that did not watch
// writes let its owner's write through untrapped, so the value recorded at
// arming is stale. When a later begin widens it to writes, a remote write
// can trap on the wider register before the owner's epoch wait ends (a
// core that took it up while another still lags); its undo must restore
// the owner's write, not the value from before it.
func TestUnionUpgradeRecordsRollbackValue(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	stPC, _, _ := buildMockCode(t, m)
	m.Store(0x100, 8, 7)
	k.BeginAtomic(2, 0, 1, 0x100, 8, hw.Read, hw.Write)
	m.Store(0x100, 8, 40) // thread 2's own write: not watched, no trap
	k.BeginAtomic(2, 0, 2, 0x100, 8, hw.Write, hw.Read)
	if wp := k.Canon.WPs[k.FindAR(2, 2).WP]; wp.Types != hw.ReadWrite {
		t.Fatalf("watchpoint types = %v, want the union RW", wp.Types)
	}
	m.Store(0x100, 8, 99)
	m.lastPC[0] = stPC
	m.pcs[0] = stPC + 6
	k.HandleTrap(0, stPC+6, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	if got := m.Load(0x100, 8); got != 40 {
		t.Errorf("memory = %d, want 40 (the owner's write, from before the undone one)", got)
	}
}

func TestUndoPushMArmsGuard(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	_, pushmPC, _ := buildMockCode(t, m)

	m.Store(0x100, 8, 5)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.ReadWrite, hw.Write)
	// Remote thread 2: PUSHM committed — value read from 0x100 landed at
	// its (post-push) stack pointer.
	m.SetReg(2, isa.RegSP, 0x800)
	m.Store(0x800, 8, 5) // the leaked value
	m.lastPC[2] = pushmPC
	m.pcs[2] = pushmPC + 5
	k.HandleTrap(2, pushmPC+5, Access{Addr: 0x100, Size: 8, Type: hw.Read})

	if k.Stats.GuardsArmed != 1 {
		t.Fatalf("GuardsArmed = %d", k.Stats.GuardsArmed)
	}
	// The guard watches the leak destination and the SP was restored.
	guardIdx := -1
	for i, wp := range k.Canon.WPs {
		if wp.Armed && k.Meta[i].Guard {
			guardIdx = i
			if wp.Addr != 0x800 {
				t.Errorf("guard watches %#x, want 0x800", wp.Addr)
			}
		}
	}
	if guardIdx < 0 {
		t.Fatal("no guard watchpoint armed")
	}
	if got := m.Reg(2, isa.RegSP); got != 0x808 {
		t.Errorf("SP = %#x, want 0x808 (push undone)", got)
	}
	// A third thread touching the leaked slot is undone and suspended on
	// the guard.
	m.Store(0x800, 8, 123)
	stPC := uint32(0) // reuse the ST instruction for thread 3
	m.lastPC[3] = stPC
	m.pcs[3] = stPC + 6
	// Point the ST's address at the guard: the handler matches by the
	// access, not the instruction operand, so report the access at 0x800.
	k.HandleTrap(3, stPC+6, Access{Addr: 0x800, Size: 8, Type: hw.Write})
	if m.blocked[3] != BlockTrap {
		t.Errorf("thread 3 not suspended on the guard: %v", m.blocked[3])
	}
	if got := m.Load(0x800, 8); got != 5 {
		t.Errorf("guarded slot = %d, want 5 (restored)", got)
	}

	// When the AR ends, the leak owner resumes; its guard releases, which
	// resumes the guard's waiter in turn.
	k.EndAtomic(1, 1, hw.Write)
	if _, still := m.blocked[2]; still {
		t.Error("leak owner not resumed")
	}
	if _, still := m.blocked[3]; still {
		t.Error("guard waiter not resumed")
	}
	for i, wp := range k.Canon.WPs {
		if wp.Armed {
			t.Errorf("wp%d still armed at the end: %+v", i, wp)
		}
	}
}

func TestUndoRefusesUnknownPC(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	buildMockCode(t, m)
	m.Store(0x100, 8, 1)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.ReadWrite, hw.Read)
	// Trap PC with no boundary-table entry and not a function entry.
	k.HandleTrap(2, 0x9999, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	if k.Stats.Unreorderable != 1 {
		t.Errorf("Unreorderable = %d", k.Stats.Unreorderable)
	}
	if _, blocked := m.blocked[2]; blocked {
		t.Error("unreorderable access must not suspend the thread")
	}
	// The access is still recorded for violation evaluation.
	ar := k.FindAR(1, 1)
	if len(ar.Remotes) != 1 || ar.Remotes[0].Undone {
		t.Errorf("remote record = %+v", ar.Remotes)
	}
}

func TestUndoRefusesBoundaryMismatch(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	stPC, _, _ := buildMockCode(t, m)
	m.Store(0x100, 8, 1)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.ReadWrite, hw.Read)
	// The boundary table says the instruction before stPC+6 is the ST,
	// but the thread actually came from somewhere else (control transfer).
	m.lastPC[2] = 0x4444
	k.HandleTrap(2, stPC+6, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	if k.Stats.BoundaryMismatch != 1 {
		t.Errorf("BoundaryMismatch = %d", k.Stats.BoundaryMismatch)
	}
	if k.Stats.Unreorderable != 1 {
		t.Errorf("Unreorderable = %d", k.Stats.Unreorderable)
	}
}

func TestPauseSampling(t *testing.T) {
	k, m := newKernelWithMock(Config{
		NumWatchpoints: 4, Mode: BugFinding,
		PauseTicks: 500, PauseEvery: 3,
	})
	for i := 1; i <= 6; i++ {
		k.BeginAtomic(1, 0, i, uint32(0x100+8*i), 8, hw.Write, hw.Read)
		if i%3 == 0 {
			if m.blocked[1] != BlockPause {
				t.Errorf("begin %d: expected pause, got %v", i, m.blocked[1])
			}
		}
		m.Resume(1)
		k.EndAtomic(1, i, hw.Write)
	}
	if k.Stats.Pauses != 2 {
		t.Errorf("Pauses = %d, want 2", k.Stats.Pauses)
	}
}

func TestRecaptureSaved(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	m.Store(0x100, 8, 10)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	// A store lands in the propagation window (untrapped).
	m.Store(0x100, 8, 11)
	k.RecaptureSaved(1)
	if k.Meta[0].SavedValue != 11 {
		t.Errorf("SavedValue = %d, want 11 (recaptured)", k.Meta[0].SavedValue)
	}
}

func TestHasTimedOutAndDepthQueries(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 100})
	m.depths[1] = 2
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	k.BeginAtomic(2, 0x40, 9, 0x100, 8, hw.Read, hw.Write) // blocks; arms the timeout
	m.advance(500)
	if !k.HasTimedOut(1, 1) {
		t.Error("HasTimedOut(1,1) = false after the timeout")
	}
	if !k.AnyTimedOutAtDepth(1, 2) {
		t.Error("AnyTimedOutAtDepth(1,2) = false")
	}
	if k.AnyTimedOutAtDepth(1, 3) {
		t.Error("AnyTimedOutAtDepth(1,3) = true for deeper frame")
	}
}
