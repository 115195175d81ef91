package kernel

import (
	"reflect"
	"testing"

	"kivati/internal/hw"
	"kivati/internal/isa"
)

// mockMachine implements Machine with manually-advanced time and explicit
// state, for kernel unit tests that don't need a full VM.
type mockMachine struct {
	now     uint64
	cores   int
	mem     [1 << 16]byte
	regs    map[int]*[16]int64
	pcs     map[int]uint32
	depths  map[int]int
	blocked map[int]BlockKind
	events  []struct {
		at uint64
		fn func()
	}
	boundary *isa.BoundaryTable
	decoded  map[uint32]isa.Instr
	lastPC   map[int]uint32

	k            *Kernel // for AfterTimeout delivery
	epochChanges int     // EpochChanged calls (lazy-propagation batching)
}

func newMock() *mockMachine {
	bt, _ := isa.Preprocess(nil, nil)
	return &mockMachine{
		cores:    2,
		regs:     map[int]*[16]int64{},
		pcs:      map[int]uint32{},
		depths:   map[int]int{},
		blocked:  map[int]BlockKind{},
		boundary: bt,
		decoded:  map[uint32]isa.Instr{},
		lastPC:   map[int]uint32{},
	}
}

func (m *mockMachine) Now() uint64                  { return m.now }
func (m *mockMachine) NumCores() int                { return m.cores }
func (m *mockMachine) Suspend(tid int, k BlockKind) { m.blocked[tid] = k }
func (m *mockMachine) Resume(tid int)               { delete(m.blocked, tid) }
func (m *mockMachine) SetWakeAt(int, uint64)        {}
func (m *mockMachine) SetEpochTarget(int, uint64)   {}
func (m *mockMachine) ThreadDepth(tid int) int      { return m.depths[tid] }
func (m *mockMachine) PC(tid int) uint32            { return m.pcs[tid] }
func (m *mockMachine) SetPC(tid int, pc uint32)     { m.pcs[tid] = pc }
func (m *mockMachine) Reg(tid, r int) int64 {
	if rr := m.regs[tid]; rr != nil {
		return rr[r]
	}
	return 0
}
func (m *mockMachine) SetReg(tid, r int, v int64) {
	if m.regs[tid] == nil {
		m.regs[tid] = &[16]int64{}
	}
	m.regs[tid][r] = v
}
func (m *mockMachine) LastInstrPC(tid int) uint32 { return m.lastPC[tid] }
func (m *mockMachine) Load(addr uint32, sz uint8) uint64 {
	var v uint64
	for i := uint8(0); i < sz; i++ {
		v |= uint64(m.mem[addr+uint32(i)]) << (8 * i)
	}
	return v
}
func (m *mockMachine) Store(addr uint32, sz uint8, v uint64) {
	for i := uint8(0); i < sz; i++ {
		m.mem[addr+uint32(i)] = byte(v >> (8 * i))
	}
}
func (m *mockMachine) Boundary() *isa.BoundaryTable { return m.boundary }
func (m *mockMachine) DecodeAt(pc uint32) (isa.Instr, bool) {
	in, ok := m.decoded[pc]
	return in, ok
}
func (m *mockMachine) AfterTimeout(ticks uint64, wpIdx int, gen uint64) {
	m.events = append(m.events, struct {
		at uint64
		fn func()
	}{m.now + ticks, func() { m.k.TimeoutWP(wpIdx, gen) }})
}
func (m *mockMachine) EpochChanged() { m.epochChanges++ }

// advance runs events due by the new time.
func (m *mockMachine) advance(to uint64) {
	m.now = to
	evs := m.events
	m.events = nil
	for _, e := range evs {
		if e.at <= to {
			e.fn()
		} else {
			m.events = append(m.events, e)
		}
	}
}

func newKernelWithMock(cfg Config) (*Kernel, *mockMachine) {
	k := New(cfg, nil, nil, nil)
	m := newMock()
	m.k = k
	k.SetMachine(m)
	return k, m
}

func TestBeginArmsWatchpoint(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	m.Store(0x100, 8, 42)
	k.BeginAtomic(1, 0x10, 7, 0x100, 8, hw.Write, hw.Read)
	if got := k.Canon.FreeIndex(); got != 1 {
		t.Errorf("FreeIndex = %d, want 1 (one armed)", got)
	}
	wp := k.Canon.WPs[0]
	if !wp.Armed || wp.Addr != 0x100 || wp.Types != hw.Write || wp.Owner != 1 {
		t.Errorf("wp = %+v", wp)
	}
	if !k.Meta[0].HasSaved || k.Meta[0].SavedValue != 42 {
		t.Errorf("SavedValue = %v,%d", k.Meta[0].HasSaved, k.Meta[0].SavedValue)
	}
	if ar := k.FindAR(1, 7); ar == nil || ar.WP != 0 {
		t.Errorf("AR not recorded: %+v", ar)
	}
	if m.blocked[1] != BlockEpoch {
		t.Errorf("arming thread not epoch-blocked: %v", m.blocked)
	}
}

func TestBeginAttachUnionUpgrade(t *testing.T) {
	k, _ := newKernelWithMock(Config{NumWatchpoints: 4})
	k.BeginAtomic(1, 0x10, 1, 0x100, 4, hw.Write, hw.Read)
	k.BeginAtomic(1, 0x14, 2, 0x100, 8, hw.Read, hw.Write)
	if k.Canon.FreeIndex() != 1 {
		t.Fatalf("second begin armed a new watchpoint; want attach")
	}
	wp := k.Canon.WPs[0]
	if wp.Types != hw.ReadWrite || wp.Size != 8 {
		t.Errorf("union not most-aggressive: types=%v size=%d", wp.Types, wp.Size)
	}
	if len(k.Meta[0].ARs) != 2 {
		t.Errorf("ARs on watchpoint = %d, want 2", len(k.Meta[0].ARs))
	}
}

func TestBeginIdempotentForActiveAR(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	k.BeginAtomic(1, 0x10, 1, 0x100, 8, hw.Write, hw.Read)
	gen := k.Meta[0].Gen
	m.Store(0x100, 8, 5)
	k.BeginAtomic(1, 0x10, 1, 0x100, 8, hw.Write, hw.Read)
	if k.Meta[0].Gen != gen {
		t.Error("re-begin re-armed the watchpoint (generation changed)")
	}
	if len(k.Meta[0].ARs) != 1 {
		t.Errorf("duplicate AR after re-begin: %d", len(k.Meta[0].ARs))
	}
	if k.Meta[0].SavedValue != 5 {
		t.Errorf("re-begin did not refresh SavedValue: %d", k.Meta[0].SavedValue)
	}
}

func TestBeginMissedWhenExhausted(t *testing.T) {
	k, _ := newKernelWithMock(Config{NumWatchpoints: 2})
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	k.BeginAtomic(1, 0, 2, 0x200, 8, hw.Write, hw.Read)
	k.BeginAtomic(1, 0, 3, 0x300, 8, hw.Write, hw.Read)
	if k.Stats.MissedARs != 1 {
		t.Errorf("MissedARs = %d, want 1", k.Stats.MissedARs)
	}
	if k.FindAR(1, 3) != nil {
		t.Error("missed AR should not be recorded")
	}
	// Its end_atomic has no effect.
	k.EndAtomic(1, 3, hw.Write)
	if len(k.Log.Violations) != 0 {
		t.Error("end of unmonitored AR produced a violation")
	}
}

func TestBeginBlocksOnRemoteWatch(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	k.BeginAtomic(1, 0x10, 1, 0x100, 8, hw.Write, hw.Read) // T1 watches writes
	m.Resume(1)
	// T2's first access is a write: would trap T1's watchpoint — block.
	k.BeginAtomic(2, 0x50, 9, 0x100, 8, hw.Read, hw.Write)
	if m.blocked[2] != BlockBegin {
		t.Fatalf("T2 not begin-blocked: %v", m.blocked)
	}
	if m.pcs[2] != 0x50 {
		t.Errorf("T2 PC not rewound to the begin syscall: %#x", m.pcs[2])
	}
	// The about-to-happen access is recorded as a detected remote (§2.2).
	ar := k.FindAR(1, 1)
	if len(ar.Remotes) != 1 || ar.Remotes[0].Type != hw.Write {
		t.Errorf("remote access not recorded on blocking AR: %+v", ar.Remotes)
	}
	// T1's end frees the watchpoint and resumes T2; a W between R..W is
	// the R-W-W lost-update case.
	k.EndAtomic(1, 1, hw.Write)
	if _, still := m.blocked[2]; still {
		t.Error("T2 not resumed at end_atomic")
	}
	if len(k.Log.Violations) != 1 || !k.Log.Violations[0].Prevented {
		t.Errorf("violations = %v", k.Log.Violations)
	}
}

func TestBeginRetryGiveUp(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	k.BeginAtomic(1, 0x10, 1, 0x100, 8, hw.Write, hw.Read)
	for i := 0; i < maxBeginRetries; i++ {
		k.BeginAtomic(2, 0x50, 9, 0x100, 8, hw.Read, hw.Write)
		if m.blocked[2] != BlockBegin {
			t.Fatalf("retry %d: not blocked", i)
		}
		m.Resume(2)
	}
	k.BeginAtomic(2, 0x50, 9, 0x100, 8, hw.Read, hw.Write)
	if m.blocked[2] == BlockBegin {
		t.Error("T2 still begin-blocked past the retry bound")
	}
	if k.Stats.BeginRetryGiveUps != 1 {
		t.Errorf("BeginRetryGiveUps = %d", k.Stats.BeginRetryGiveUps)
	}
	// T2 proceeded and armed its own watchpoint.
	if k.FindAR(2, 9) == nil {
		t.Error("T2's AR not armed after give-up")
	}
}

func TestTimeoutReleasesAndMarksUnprevented(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	k.BeginAtomic(1, 0x10, 1, 0x100, 8, hw.Write, hw.Read)
	k.BeginAtomic(2, 0x50, 9, 0x100, 8, hw.Read, hw.Write) // blocks
	if m.blocked[2] != BlockBegin {
		t.Fatal("T2 not blocked")
	}
	m.advance(2000) // fire the timeout
	if _, still := m.blocked[2]; still {
		t.Fatal("timeout did not release T2")
	}
	if k.Stats.Timeouts != 1 {
		t.Errorf("Timeouts = %d", k.Stats.Timeouts)
	}
	// T1's AR was force-terminated; its end still reports the violation,
	// not prevented.
	if k.FindAR(1, 1) != nil {
		t.Error("timed-out AR still active")
	}
	k.EndAtomic(1, 1, hw.Write)
	if len(k.Log.Violations) != 1 {
		t.Fatalf("violations = %v", k.Log.Violations)
	}
	if k.Log.Violations[0].Prevented {
		t.Error("timed-out violation must be flagged not prevented")
	}
}

// TestTimeoutWPDoesNotAllocate: delivering a suspension timeout walks the
// watchpoint's AR list in place and leaves the list's storage to the next
// arming, so a warmed-up arm/suspend/time-out cycle allocates nothing.
func TestTimeoutWPDoesNotAllocate(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4, TimeoutTicks: 1000})
	ars := []*ActiveAR{{ID: 1, Thread: 1, WP: 0}, {ID: 2, Thread: 1, WP: 0}}
	ts := k.thread(1)
	suspended := []int{2}
	cycle := func() {
		meta := k.Meta[0]
		meta.ARs = append(meta.ARs, ars...)
		ts.ARs = append(ts.ARs, ars...)
		meta.TrapSuspended = suspended
		m.blocked[2] = BlockTrap
		k.TimeoutWP(0, meta.Gen)
	}
	cycle()
	if k.Stats.Timeouts != 1 || len(ts.ARs) != 0 || len(ts.TimedOut) != 2 || !ars[0].TimedOut {
		t.Fatalf("timeout not delivered: timeouts=%d ars=%d timed-out=%d",
			k.Stats.Timeouts, len(ts.ARs), len(ts.TimedOut))
	}
	if _, still := m.blocked[2]; still {
		t.Fatal("timeout did not resume the suspended thread")
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("TimeoutWP cycle allocates %.1f times, want 0", n)
	}
}

// TestFreeWPKeepsSuspensionStorage: freeing a watchpoint resumes its
// suspended threads and leaves both suspension lists' storage to the next
// suspension on that register, so a warmed-up suspend/free cycle allocates
// nothing.
func TestFreeWPKeepsSuspensionStorage(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	cycle := func() {
		k.suspendOn(2, 0, BlockTrap)
		k.suspendOn(3, 0, BlockBegin)
		k.FreeWP(0)
	}
	cycle()
	if len(m.blocked) != 0 {
		t.Fatalf("FreeWP left threads blocked: %v", m.blocked)
	}
	if meta := k.Meta[0]; len(meta.TrapSuspended) != 0 || len(meta.BeginSuspended) != 0 {
		t.Fatalf("FreeWP left suspensions: trap %v begin %v", meta.TrapSuspended, meta.BeginSuspended)
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("suspend/free cycle allocates %.1f times, want 0", n)
	}
}

func TestClearARDepth(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	m.depths[1] = 1
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	m.depths[1] = 2
	k.BeginAtomic(1, 0, 2, 0x200, 8, hw.Write, hw.Read)
	// clear at depth 2 removes only the inner AR.
	k.ClearAR(1)
	if k.FindAR(1, 2) != nil {
		t.Error("inner AR survived clear_ar")
	}
	if k.FindAR(1, 1) == nil {
		t.Error("outer AR wrongly cleared")
	}
	m.depths[1] = 1
	k.ClearAR(1)
	if k.FindAR(1, 1) != nil {
		t.Error("outer AR survived clear_ar at its depth")
	}
	if len(k.Log.Violations) != 0 {
		t.Error("clear_ar must not report violations")
	}
	if k.Canon.FreeIndex() != 0 {
		t.Error("watchpoints not freed by clear_ar")
	}
}

// TestClearARAllocFree pins that clear_ar, which OptBase runs at every
// subroutine exit, releases a held AR without allocating. The inner of two
// nested ARs on one address is cleared and put back each run; the outer
// keeps the shared watchpoint, so putting it back needs no allocation.
func TestClearARAllocFree(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	m.depths[1] = 1
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	m.depths[1] = 2
	k.BeginAtomic(1, 0, 2, 0x100, 8, hw.Write, hw.Read)
	inner := k.FindAR(1, 2)
	if inner == nil || inner.WP < 0 || inner.WP != k.FindAR(1, 1).WP {
		t.Fatal("nested ARs on one address do not share a watchpoint")
	}
	ts, meta, wp := k.thread(1), k.Meta[inner.WP], k.Canon.WPs[inner.WP]
	if allocs := testing.AllocsPerRun(100, func() {
		k.ClearAR(1)
		if k.FindAR(1, 2) != nil || len(meta.ARs) != 1 {
			t.Fatal("clear_ar at depth 2 did not release exactly the inner AR")
		}
		ts.ARs = append(ts.ARs, inner)
		meta.ARs = append(meta.ARs, inner)
		k.Canon.Set(inner.WP, wp)
	}); allocs != 0 {
		t.Fatalf("clear_ar releasing one AR allocates %.1f times, want 0", allocs)
	}
}

// TestRestoreInsideARAllocFree is the kernel twin of vm's
// TestRestoreAllocFree for a snapshot taken with two ARs active: restoring
// into the kernel's own AR objects allocates nothing, both when the kernel
// still holds the ARs and when, as at the end of every resumed run, it has
// released them. The restored ARs equal the captured ones.
func TestRestoreInsideARAllocFree(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	k.BeginAtomic(1, 0x10, 1, 0x100, 8, hw.Write, hw.Read)
	m.depths[2] = 1
	k.BeginAtomic(2, 0x20, 2, 0x200, 8, hw.Read, hw.Write)
	k.recordRemote(RemoteRec{Thread: 2, PC: 0x24, Type: hw.Write, Tick: 3}, k.FindAR(1, 1).WP)
	snap := k.Snapshot()
	want1, want2 := *k.FindAR(1, 1), *k.FindAR(2, 2)
	if allocs := testing.AllocsPerRun(100, func() { k.Restore(snap) }); allocs != 0 {
		t.Fatalf("Restore with 2 ARs active allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		k.ClearDepth(1, 0, false)
		k.ClearDepth(2, 0, false)
		k.Restore(snap)
	}); allocs != 0 {
		t.Fatalf("clearing both ARs and restoring allocates %.1f times, want 0", allocs)
	}
	got1, got2 := k.FindAR(1, 1), k.FindAR(2, 2)
	if got1 == nil || got2 == nil {
		t.Fatal("restore lost an active AR")
	}
	if !reflect.DeepEqual(*got1, want1) || !reflect.DeepEqual(*got2, want2) {
		t.Errorf("restored ARs differ:\n got %+v\n     %+v\nwant %+v\n     %+v", *got1, *got2, want1, want2)
	}
	if k.Meta[got1.WP].ARs[0] != got1 || k.Meta[got2.WP].ARs[0] != got2 {
		t.Error("watchpoint metadata and thread tables hold different AR objects")
	}
}

func TestEndViolationMatrix(t *testing.T) {
	// Inject remote accesses and check the Figure 2 decision at end time.
	cases := []struct {
		first, remote, second hw.AccessType
		want                  bool
	}{
		{hw.Read, hw.Write, hw.Read, true},
		{hw.Read, hw.Read, hw.Read, false},
		{hw.Write, hw.Read, hw.Write, true},
		{hw.Write, hw.Write, hw.Write, false},
	}
	for _, c := range cases {
		k, _ := newKernelWithMock(Config{NumWatchpoints: 4})
		k.BeginAtomic(1, 0, 1, 0x100, 8, hw.ReadWrite, c.first)
		ar := k.FindAR(1, 1)
		ar.Remotes = append(ar.Remotes, RemoteRec{Thread: 2, Type: c.remote, Undone: true})
		k.EndAtomic(1, 1, c.second)
		got := len(k.Log.Violations) == 1
		if got != c.want {
			t.Errorf("(%v,%v,%v): violation=%v want %v", c.first, c.remote, c.second, got, c.want)
		}
	}
}

func TestMutexTransfer(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	k.Lock(1, 0x500)
	if held, owner, _ := k.MutexState(0x500); !held || owner != 1 {
		t.Fatalf("lock state: %v %d", held, owner)
	}
	k.Lock(2, 0x500)
	if m.blocked[2] != BlockLock {
		t.Fatal("T2 not lock-blocked")
	}
	k.Unlock(1, 0x500)
	if _, still := m.blocked[2]; still {
		t.Fatal("unlock did not transfer to waiter")
	}
	if _, owner, _ := k.MutexState(0x500); owner != 2 {
		t.Errorf("owner = %d, want 2", owner)
	}
	// Unlock by a non-owner is ignored.
	k.Unlock(3, 0x500)
	if held, _, _ := k.MutexState(0x500); !held {
		t.Error("non-owner unlock released the mutex")
	}
	k.Unlock(2, 0x500)
	if held, _, _ := k.MutexState(0x500); held {
		t.Error("mutex still held after owner unlock")
	}
}

func TestThreadExitedReleasesEverything(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	k.Lock(1, 0x500)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	k.Lock(2, 0x500) // blocks
	k.ThreadExited(1)
	if k.FindAR(1, 1) != nil {
		t.Error("AR survived thread exit")
	}
	if k.Canon.FreeIndex() != 0 {
		t.Error("watchpoint not freed on thread exit")
	}
	if _, still := m.blocked[2]; still {
		t.Error("lock not transferred on owner exit")
	}
}

func TestReconcileStale(t *testing.T) {
	k, _ := newKernelWithMock(Config{NumWatchpoints: 4, Opt: OptOptimized})
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	ar := k.FindAR(1, 1)
	k.DetachUser(ar)
	if !k.Meta[0].Stale {
		t.Fatal("user detach did not mark stale")
	}
	if !k.Canon.WPs[0].Armed {
		t.Fatal("lazy release must leave the hardware armed")
	}
	if !k.HasStale() {
		t.Fatal("HasStale false")
	}
	k.ReconcileStale()
	if k.Canon.WPs[0].Armed {
		t.Error("reconcile did not disarm the stale watchpoint")
	}
	if k.Stats.StaleFrees != 1 {
		t.Errorf("StaleFrees = %d", k.Stats.StaleFrees)
	}
}

func TestNullOpDoesNothing(t *testing.T) {
	k, _ := newKernelWithMock(Config{NumWatchpoints: 4, Opt: OptNullSyscall})
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Read)
	if k.Canon.FreeIndex() != 0 {
		t.Error("null-syscall begin armed a watchpoint")
	}
	k.EndAtomic(1, 1, hw.Write)
	k.ClearAR(1)
	if k.Stats.BeginKernel != 1 || k.Stats.EndKernel != 1 || k.Stats.ClearKernel != 1 {
		t.Errorf("null syscalls not counted: %+v", k.Stats)
	}
}

func TestSpuriousTrap(t *testing.T) {
	k, _ := newKernelWithMock(Config{NumWatchpoints: 4})
	// Trap reported on a disarmed register (stale core state).
	k.HandleTrap(2, 0x40, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	if k.Stats.SpuriousTraps != 1 {
		t.Errorf("SpuriousTraps = %d", k.Stats.SpuriousTraps)
	}
}

func TestLocalWriteCapture(t *testing.T) {
	k, m := newKernelWithMock(Config{NumWatchpoints: 4})
	m.Store(0x100, 8, 10)
	k.BeginAtomic(1, 0, 1, 0x100, 8, hw.Write, hw.Write)
	if k.Meta[0].SavedValue != 10 {
		t.Fatalf("SavedValue at begin = %d", k.Meta[0].SavedValue)
	}
	// Local write commits, then traps: the kernel records the new value.
	m.Store(0x100, 8, 99)
	k.HandleTrap(1, 0x40, Access{Addr: 0x100, Size: 8, Type: hw.Write})
	if k.Meta[0].SavedValue != 99 {
		t.Errorf("SavedValue after local write trap = %d, want 99", k.Meta[0].SavedValue)
	}
	if _, blocked := m.blocked[1]; blocked && m.blocked[1] == BlockTrap {
		t.Error("local access wrongly suspended")
	}
}

func TestStatsKernelEntries(t *testing.T) {
	s := &Stats{BeginKernel: 10, EndKernel: 5, ClearKernel: 2, Traps: 3, OtherSyscalls: 100}
	if got := s.KernelEntries(); got != 20 {
		t.Errorf("KernelEntries = %d, want 20 (other syscalls excluded)", got)
	}
}

func TestModeAndOptStrings(t *testing.T) {
	if Prevention.String() != "prevention" || BugFinding.String() != "bug-finding" {
		t.Error("Mode strings wrong")
	}
	for o, want := range map[OptLevel]string{
		OptBase: "base", OptNullSyscall: "null-syscall",
		OptSyncVars: "syncvars", OptOptimized: "optimized",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
	if !OptSyncVars.UseWhitelist() || OptBase.UseWhitelist() {
		t.Error("UseWhitelist wrong")
	}
	if !OptOptimized.UseUserLib() || OptSyncVars.UseUserLib() {
		t.Error("UseUserLib wrong")
	}
}
