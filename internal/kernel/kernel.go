// Package kernel implements Kivati's kernel component (§3.2–§3.3): the
// per-thread atomic region tables, the hardware watchpoint metadata, the
// begin_atomic / end_atomic / clear_ar handlers, the watchpoint trap handler
// with the undo engine that reverses committed remote accesses (x86 traps
// after the access), thread suspension with the 10 ms deadlock-avoidance
// timeout, and the violation log.
//
// The kernel manipulates the machine through the Machine interface; the
// canonical watchpoint register state lives here and is propagated lazily to
// per-core register files by the VM when cores enter the kernel.
package kernel

import (
	"kivati/internal/annotate"
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/trace"
	"kivati/internal/whitelist"
)

// Mode selects Kivati's operating mode (§2.3).
type Mode int

const (
	// Prevention detects and prevents violations with minimal overhead.
	Prevention Mode = iota
	// BugFinding additionally pauses local threads inside atomic regions
	// to amplify the chance of a violating interleaving.
	BugFinding
)

func (m Mode) String() string {
	if m == BugFinding {
		return "bug-finding"
	}
	return "prevention"
}

// OptLevel selects the optimization configuration, matching the columns of
// the paper's Table 3.
type OptLevel int

const (
	// OptBase: every begin_atomic and end_atomic crosses into the kernel.
	OptBase OptLevel = iota
	// OptNullSyscall: annotations cross into the kernel but return
	// immediately (ablation isolating crossing cost).
	OptNullSyscall
	// OptSyncVars: Base plus the user-space whitelist seeded with
	// synchronization variables (optimization 4).
	OptSyncVars
	// OptOptimized: all four §3.4 optimizations — user-space
	// pre-processing, lazy watchpoint release, local-thread watchpoint
	// disable with shadow writes, and the whitelist.
	OptOptimized
)

func (o OptLevel) String() string {
	switch o {
	case OptBase:
		return "base"
	case OptNullSyscall:
		return "null-syscall"
	case OptSyncVars:
		return "syncvars"
	case OptOptimized:
		return "optimized"
	}
	return "opt?"
}

// UseWhitelist reports whether whitelisted ARs skip the kernel in user
// space.
func (o OptLevel) UseWhitelist() bool { return o == OptSyncVars || o == OptOptimized }

// UseUserLib reports whether the user-space library replicates AR and
// watchpoint metadata to elide kernel crossings (optimizations 1–3).
func (o OptLevel) UseUserLib() bool { return o == OptOptimized }

// NullOp reports whether kernel handlers return without doing anything.
func (o OptLevel) NullOp() bool { return o == OptNullSyscall }

// BlockKind is the reason a thread is blocked; the VM's scheduler uses it to
// decide wake conditions.
type BlockKind int

const (
	BlockNone  BlockKind = iota
	BlockEpoch           // begin_atomic waiting for cross-core watchpoint propagation
	BlockPause           // bug-finding pause inside an AR
	BlockTrap            // remote thread suspended after a watchpoint trap
	BlockBegin           // thread suspended in begin_atomic (its target is in another thread's AR)
	BlockLock            // waiting for a mutex
	BlockSleep           // sleep() syscall
	BlockRecv            // server thread waiting for a request
)

// Machine is the hardware/OS surface the kernel drives. The VM implements
// it.
type Machine interface {
	Now() uint64
	NumCores() int

	// Thread control. Suspend marks the thread blocked with the given
	// reason; Resume makes it runnable. SetWakeAt and SetEpochTarget set
	// auxiliary wake conditions honored for BlockEpoch/BlockPause.
	Suspend(tid int, kind BlockKind)
	Resume(tid int)
	SetWakeAt(tid int, tick uint64)
	SetEpochTarget(tid int, epoch uint64)

	ThreadDepth(tid int) int
	PC(tid int) uint32
	SetPC(tid int, pc uint32)
	Reg(tid int, r int) int64
	SetReg(tid int, r int, v int64)
	// LastInstrPC returns the PC of the last instruction the thread
	// executed, used only to cross-check the boundary-table undo path.
	LastInstrPC(tid int) uint32

	Load(addr uint32, sz uint8) uint64
	Store(addr uint32, sz uint8, v uint64)

	Boundary() *isa.BoundaryTable
	DecodeAt(pc uint32) (isa.Instr, bool)

	// AfterTimeout schedules TimeoutWP(wpIdx, gen) to run at Now()+ticks,
	// stored by the VM as plain data so pending suspension timeouts can be
	// captured and restored by machine snapshots.
	AfterTimeout(ticks uint64, wpIdx int, gen uint64)
	// EpochChanged tells the VM the canonical watchpoint state changed:
	// the executing core adopts at once, others on their next kernel
	// entry. It wakes no thread: the handler may still undo an access.
	EpochChanged()
}

// Config parameterizes the kernel.
type Config struct {
	Mode           Mode
	Opt            OptLevel
	NumWatchpoints int    // hardware watchpoints per core (x86: 4)
	TimeoutTicks   uint64 // remote-thread suspension timeout (paper: 10 ms)
	PauseTicks     uint64 // bug-finding pause length (paper: 20/50 ms)
	// PauseEvery samples bug-finding pauses: pause on every Nth monitored
	// begin_atomic (0 disables). The paper pauses "at every begin_atomic"
	// but its measured 2–3% bug-finding overhead is only achievable if
	// pauses are far rarer than annotations; we make the sampling rate
	// explicit.
	PauseEvery uint64
	// ShadowDelta is the offset of the shadow page mirror; nonzero only
	// when the binary was compiled with shadow writes and optimization 3
	// is active.
	ShadowDelta uint32
	// TrapBefore selects before-access trap delivery (Table 1: SPARC and
	// some MIPS forms) instead of x86's after-access semantics. The VM
	// then aborts the access before it commits, so the kernel suspends
	// the remote thread without any undo — the simplification the paper
	// notes for such processors (§2.2). Watchpoints are implicitly
	// disabled for the owning thread (the hardware analog is resuming
	// local accesses with the resume-flag/single-step dance).
	TrapBefore bool
}

// maxBeginRetries bounds how many times in a row a begin_atomic is
// suspended because its address sits in another thread's AR. Past the bound
// the begin proceeds (its access is recorded as a detected remote access but
// no longer delayed) — the same role the suspension timeout plays for
// trap-blocked threads, preventing livelock against a loop that re-arms its
// watchpoint every iteration.
const maxBeginRetries = 4

// RemoteRec records one remote access that hit a watchpoint during an AR.
type RemoteRec struct {
	Thread int
	PC     uint32 // PC of the accessing instruction (trap PC if unknown)
	Type   hw.AccessType
	Tick   uint64
	Undone bool
}

// ActiveAR is one dynamic atomic region instance.
type ActiveAR struct {
	ID      int
	Static  *annotate.AR // static AR info; nil for hand-assembled programs
	Thread  int
	Depth   int // call depth at begin_atomic, for clear_ar
	Addr    uint32
	Size    uint8
	Watch   hw.AccessType
	First   hw.AccessType
	BeginPC uint32
	Start   uint64
	WP      int // watchpoint index, -1 if unmonitored
	Remotes []RemoteRec
	// TimedOut marks that the AR was force-terminated by the suspension
	// timeout; a matching end_atomic still records the violation but notes
	// it was not prevented (§2.2).
	TimedOut bool
}

// WPMeta is the kernel's metadata for one watchpoint register.
type WPMeta struct {
	ARs            []*ActiveAR
	TrapSuspended  []int // remote threads suspended by traps on this watchpoint
	BeginSuspended []int // threads suspended during begin_atomic on this address
	Stale          bool  // optimization 2: hardware armed but logically free
	SavedValue     uint64
	HasSaved       bool
	Guard          bool // leak guard protecting a memory location a remote read leaked into
	GuardOwner     int
	Gen            uint64 // bumped on free/rearm; invalidates pending timeouts
	TimeoutArmed   bool
}

// reset frees the watchpoint's metadata, keeping the storage of the AR and
// suspension lists for the next AR, suspension or restore on the register.
// FreeWP and releaseGuards still range over the old lists after the reset:
// nothing appends to them meanwhile, because only suspendOn appends, and
// it runs when a thread executes, while Resume only makes a thread
// runnable.
func (w *WPMeta) reset() {
	*w = WPMeta{
		Gen:            w.Gen + 1,
		ARs:            w.ARs[:0],
		TrapSuspended:  w.TrapSuspended[:0],
		BeginSuspended: w.BeginSuspended[:0],
	}
}

// threadState is the kernel's per-thread AR table.
type threadState struct {
	ARs      []*ActiveAR
	TimedOut map[int]*ActiveAR // AR ID -> timed-out instance awaiting its end_atomic
}

type mutex struct {
	held    bool
	owner   int
	waiters []int
}

// Stats counts kernel-side events. The VM shares this struct and fills the
// execution counters.
type Stats struct {
	Instructions uint64
	Ticks        uint64

	Begins, Ends, Clears                uint64 // annotations executed (any path)
	BeginKernel, EndKernel, ClearKernel uint64 // annotations that crossed into the kernel
	UserHandled                         uint64 // annotations absorbed by the user-space library
	WhitelistSkips                      uint64

	Traps             uint64
	SpuriousTraps     uint64
	StaleFrees        uint64
	MissedARs         uint64 // begin_atomic with no free watchpoint (§3.5)
	MonitoredARs      uint64 // begins that got (or joined) a watchpoint
	Timeouts          uint64
	BeginRetryGiveUps uint64 // begin_atomic suspensions abandoned after the retry bound
	Unreorderable     uint64 // remote accesses that could not be undone
	BoundaryMismatch  uint64 // undo refused: boundary table disagreed with reality
	Suspensions       uint64
	Pauses            uint64
	EpochWaits        uint64
	GuardsArmed       uint64

	OtherSyscalls   uint64
	TimerInterrupts uint64
	LocksBlocked    uint64

	// MissedByAR counts missed-AR events per AR ID (diagnostic: which
	// atomic regions lose monitoring to watchpoint exhaustion).
	MissedByAR map[int]uint64
}

// RecordMissed counts a missed AR.
func (s *Stats) RecordMissed(arID int) {
	s.MissedARs++
	if s.MissedByAR == nil {
		s.MissedByAR = map[int]uint64{}
	}
	s.MissedByAR[arID]++
}

// KernelEntries returns the domain crossings the paper's Table 4 counts:
// begin_atomic and end_atomic system calls plus remote traps (clear_ar
// included with the syscalls).
func (s *Stats) KernelEntries() uint64 {
	return s.BeginKernel + s.EndKernel + s.ClearKernel + s.Traps
}

// Kernel is the Kivati kernel component.
type Kernel struct {
	Cfg Config
	M   Machine
	WL  *whitelist.Whitelist
	Log *trace.Log
	state

	// Symbolize, if set, maps a PC to a source line for violation
	// reports.
	Symbolize func(pc uint32) int

	arInfo func(id int) *annotate.AR

	// arPool holds the AR objects Restore copies into (snapshot.go).
	arPool []*ActiveAR
}

// state is the kernel's mutable state: exactly what a Snapshot captures and
// Restore puts back, both through copyFrom (snapshot.go).
type state struct {
	Canon *hw.RegisterFile
	Meta  []*WPMeta
	Stats *Stats

	threads []*threadState // indexed by thread ID; nil until first used
	mutexes map[uint32]*mutex
	begins  uint64 // monotone count of monitored begins, for pause sampling
	// beginRetries counts consecutive begin_atomic suspensions per
	// (thread, AR), cleared when the begin succeeds.
	beginRetries map[[2]int]int
}

// newState returns the state of a kernel with n disarmed watchpoints,
// counting into stats.
func newState(n int, stats *Stats) state {
	s := state{
		Canon:        hw.NewRegisterFile(n),
		Meta:         make([]*WPMeta, n),
		Stats:        stats,
		mutexes:      map[uint32]*mutex{},
		beginRetries: map[[2]int]int{},
	}
	metas := make([]WPMeta, n)
	for i := range s.Meta {
		s.Meta[i] = &metas[i]
		s.Canon.Clear(i)
	}
	return s
}

// SetARInfo installs a lookup from AR ID to static AR metadata, used to
// enrich violation reports with function and variable names.
func (k *Kernel) SetARInfo(f func(id int) *annotate.AR) { k.arInfo = f }

// New constructs a kernel. The Machine must be attached (SetMachine) before
// any handler runs.
func New(cfg Config, wl *whitelist.Whitelist, log *trace.Log, stats *Stats) *Kernel {
	if cfg.NumWatchpoints <= 0 {
		cfg.NumWatchpoints = hw.DefaultNumWatchpoints
	}
	if wl == nil {
		wl = whitelist.New()
	}
	if log == nil {
		log = &trace.Log{}
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Kernel{Cfg: cfg, WL: wl, Log: log, state: newState(cfg.NumWatchpoints, stats)}
}

// SetMachine attaches the machine.
func (k *Kernel) SetMachine(m Machine) { k.M = m }

func (k *Kernel) thread(t int) *threadState {
	if t >= len(k.threads) {
		k.threads = append(k.threads, make([]*threadState, t+1-len(k.threads))...)
	}
	ts := k.threads[t]
	if ts == nil {
		ts = &threadState{TimedOut: map[int]*ActiveAR{}}
		k.threads[t] = ts
	}
	return ts
}

// ActiveARs returns the thread's active atomic regions (used by the
// user-space library, which shares this state as its replica).
func (k *Kernel) ActiveARs(t int) []*ActiveAR { return k.thread(t).ARs }

// FindAR returns the thread's active AR with the given ID, or nil.
func (k *Kernel) FindAR(t, arID int) *ActiveAR {
	for _, ar := range k.thread(t).ARs {
		if ar.ID == arID {
			return ar
		}
	}
	return nil
}

// HasTimedOut reports whether the thread has a timed-out AR instance with
// the given ID awaiting its end_atomic.
func (k *Kernel) HasTimedOut(t, arID int) bool {
	_, ok := k.thread(t).TimedOut[arID]
	return ok
}

// AnyTimedOutAtDepth reports whether the thread has timed-out AR records at
// or below the given call depth.
func (k *Kernel) AnyTimedOutAtDepth(t, depth int) bool {
	for _, ar := range k.thread(t).TimedOut {
		if ar.Depth >= depth {
			return true
		}
	}
	return false
}

// localDisable reports whether optimization 3 (disable watchpoints during
// the owning thread's execution) is active.
func (k *Kernel) localDisable() bool { return k.Cfg.Opt.UseUserLib() }

// WatchedByOther returns the index of an armed, non-stale, non-guard
// watchpoint owned by a different thread that would trap an access of type
// t0 to [addr, addr+size), or -1.
func (k *Kernel) WatchedByOther(t int, addr uint32, size uint8, t0 hw.AccessType) int {
	if !k.Canon.MayMatch(addr, size) {
		return -1
	}
	for i, wp := range k.Canon.WPs {
		m := k.Meta[i]
		if !wp.Armed || m.Stale || m.Guard || wp.Owner == t {
			continue
		}
		if wp.Types&t0 == 0 {
			continue
		}
		if addr < wp.Addr+uint32(wp.Size) && wp.Addr < addr+uint32(size) {
			return i
		}
	}
	return -1
}

// OwnWP returns the index of a non-stale watchpoint owned by thread t on
// exactly addr, or -1.
func (k *Kernel) OwnWP(t int, addr uint32) int {
	if k.Canon.ArmedCount() == 0 {
		return -1
	}
	for i, wp := range k.Canon.WPs {
		if wp.Armed && !k.Meta[i].Stale && !k.Meta[i].Guard && wp.Owner == t && wp.Addr == addr {
			return i
		}
	}
	return -1
}

// NeedsKernel reports whether terminating ar is kernel work: remote
// accesses to evaluate, or threads suspended on its watchpoint to wake.
func (k *Kernel) NeedsKernel(ar *ActiveAR) bool {
	if ar.WP < 0 {
		return false
	}
	m := k.Meta[ar.WP]
	return len(ar.Remotes) > 0 || len(m.TrapSuspended) > 0 || len(m.BeginSuspended) > 0
}

// HasStale reports whether any watchpoint is lazily released and could be
// reclaimed by a kernel entry.
func (k *Kernel) HasStale() bool {
	for _, m := range k.Meta {
		if m.Stale {
			return true
		}
	}
	return false
}

// ReconcileStale frees all stale watchpoints (performed on kernel entries,
// making the hardware consistent with the user-space copy; §3.4 opt. 2).
// The per-register epoch bumps are kept — epoch-target arithmetic elsewhere
// counts individual canonical changes — but cross-core propagation is
// batched into one EpochChanged notification for the whole sweep: the
// machine only needs to learn once that cores are behind.
func (k *Kernel) ReconcileStale() {
	freed := false
	for i, m := range k.Meta {
		if m.Stale {
			k.Stats.StaleFrees++
			k.Canon.Clear(i)
			k.Canon.Epoch++
			k.Meta[i].reset()
			freed = true
		}
	}
	if freed {
		k.M.EpochChanged()
	}
}

// disarm clears a watchpoint register and resets its metadata. Suspended
// threads must have been resumed by the caller.
func (k *Kernel) disarm(i int) {
	k.Canon.Clear(i)
	k.Canon.Epoch++
	k.Meta[i].reset()
	k.M.EpochChanged()
}
