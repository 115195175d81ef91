// Package vm is the multi-core virtual machine Kivati-protected programs
// run on. It models the hardware and OS surface the paper depends on: one
// watchpoint register file per core with x86 trap-after-access semantics,
// lazy cross-core propagation of watchpoint state (cores adopt the
// canonical state on kernel entries — syscalls, traps and timer
// interrupts), a virtual clock that charges a domain-crossing cost for
// every kernel entry (the dominant overhead the paper measures), a
// round-robin preemptive scheduler with seeded interleaving randomization,
// and the system calls the compiler emits — including begin_atomic /
// end_atomic / clear_ar, which are routed through the user-space library's
// decision procedure before paying for a crossing.
package vm

import (
	"container/heap"
	"fmt"
	"math/rand"

	"kivati/internal/compile"
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/kernel"
	"kivati/internal/trace"
)

// The per-event costs of the virtual-time model, in ticks. The
// crossing/instruction ratio (~150x) matches the order of magnitude of a
// syscall on the paper's Core 2 hardware.
const (
	instrCost    = 1   // one instruction
	syscallCost  = 150 // kernel domain crossing
	userLibCost  = 80  // annotation handled in user space
	trapCost     = 250 // watchpoint trap delivery + handling
	timerIntCost = 15  // timer interrupt
)

// defaultQuantum is the scheduling quantum a zero Costs.Quantum selects.
const defaultQuantum = 500

// Costs is the part of the virtual-time cost model a run may vary, in
// ticks; the per-event costs are fixed.
type Costs struct {
	Quantum uint64 // scheduling quantum (timer period); 0 selects 500
	// AccessCheck, when nonzero, charges this many ticks per committed
	// memory access. It models the per-access software instrumentation of
	// testing systems like AVIO/CTrigger (the related-work baseline the
	// paper contrasts with: 15x-65x slowdowns without hardware support).
	AccessCheck uint64
}

// DefaultCosts returns the calibrated cost model: the default quantum and
// no per-access charge.
func DefaultCosts() Costs { return Costs{Quantum: defaultQuantum} }

// RequestConfig drives an open-loop request generator for server workloads
// (Webstone/TPC-W analogs): requests arrive with exponential interarrival
// times, worker threads recv() them, and send() completes them, recording
// the latency.
type RequestConfig struct {
	MeanInterarrival uint64 // mean ticks between arrivals
	Count            int    // total requests to generate
}

// DispatchMode selects the interpreter's execution tier.
type DispatchMode int

const (
	// DispatchFast (the default) is the fast tier: the Run loop retires
	// straight-line windows of instructions in bulk, with or without a
	// schedule policy, and handles every kernel and scheduling transition
	// itself. It stays bit-identical to DispatchStep: a window ends before
	// any tick at which kernel activity (events, timers, scheduling) is
	// due, and no scheduling decision point can occur inside a window,
	// because a window never frees a core while the run queue is
	// non-empty. Armed watchpoints do not end windows — blocks whose static
	// footprint is disjoint from the armed registers run unchecked, the
	// rest run with per-access pre-checks (see fastpath.go). A per-access
	// cost disables the tier for the whole run.
	DispatchFast DispatchMode = iota
	// DispatchStep is the reference interpreter: the legacy
	// one-instruction-at-a-time loop the fast tier is checked against.
	DispatchStep
)

// Config parameterizes a machine.
type Config struct {
	Cores    int
	Seed     int64
	MaxTicks uint64 // stop after this many ticks (0 = no limit)
	Costs    Costs
	Requests *RequestConfig
	// Policy, if non-nil, replaces the built-in seeded scheduler
	// randomization: it is consulted at every decision point (a free core
	// with two or more runnable threads) and fully determines the
	// interleaving. See SchedulePolicy.
	Policy SchedulePolicy
	// Dispatch selects the execution tier (see DispatchMode).
	Dispatch DispatchMode
}

type threadState int

const (
	stRunnable threadState = iota
	stRunning
	stBlocked
	stDone
)

// Thread is one kernel-scheduled thread.
type Thread struct {
	ID          int
	Regs        [isa.NumRegs]int64
	PC          uint32
	State       threadState
	Block       kernel.BlockKind
	WakeAt      uint64
	EpochTarget uint64
	Depth       int
	LastInstr   uint32
	OnCore      int // -1 when not running
	Fault       string
}

// Core is one CPU core with its own watchpoint register file.
type Core struct {
	ID  int
	WP  *hw.RegisterFile
	Cur *Thread
	coreState

	// Fixed access-recording buffer for the instruction in flight (no
	// instruction performs more than two memory accesses). Owned by
	// Machine.rec / Machine.step; reset at the top of each step.
	accs        [2]access
	nacc        int
	trapAborted bool

	// The open block decision, scratch state of the superstep window that
	// made it: window admission and Restore drop it (dropBlock), so nothing
	// of it outlives a window or enters a snapshot. fastLeft counts the
	// instructions the decision still covers and fastChecked is its mode
	// (per-access checks required). fastIdx is the op-stream index of the
	// next instruction: while fastLeft > 0 it is the op at the thread's pc;
	// past the block it is a hint that enterBlock checks against the pc.
	// fastLoop is the first op of a loop superblock whose decision execRun
	// renews at the back edge (0 for none; see enterBlock).
	fastLeft    uint16
	fastIdx     uint32
	fastLoop    uint32
	fastChecked bool

	// The open decision's footprint, evaluated against the thread's SP/FP
	// at block entry (see evalFootprint): fpRanges[:fpN] are its
	// intervals, and fpInMem says they were evaluated, are bounded and lie
	// inside data memory — what chunkLen needs.
	fpRanges [3]hw.AddrRange
	fpN      uint8
	fpInMem  bool
}

// coreState is the per-core state a snapshot restores verbatim.
type coreState struct {
	BusyUntil uint64
	NextTimer uint64
}

// machState is the machine-wide scalar state a snapshot restores verbatim.
type machState struct {
	clock    uint64
	eventSeq uint64
	schedSeq uint64 // decision points consumed so far (policy runs only)
	reqMade  int

	// coresBehind is set by EpochChanged whenever the canonical watchpoint
	// state advances and cleared once every core has taken it up; while
	// false, the Run loop skips the per-iteration idle-core adoption scan
	// (lazy cross-core propagation batched at window edges).
	coresBehind bool

	// pickCore is 1 + the ID of the core whose schedule is consulting the
	// policy, 0 outside Pick. A snapshot taken inside Pick carries it, so
	// Run resumed from that snapshot re-enters its core loop there.
	pickCore int

	tel Telemetry // reported as Result.Telemetry
}

// eventKind discriminates pending timer events. All kernel- and
// machine-originated events are plain data (evWake/evWPTimeout/evArrival)
// so a Snapshot can capture and a Restore can replay the pending queue on
// any machine; evFn carries an opaque closure (used only by core.Run's
// whitelist-reload timer) and makes a machine unsnapshottable while
// pending.
type eventKind uint8

const (
	evFn        eventKind = iota
	evWake                // a = thread ID: wake a Pause/Sleep-blocked thread
	evWPTimeout           // a = watchpoint index, b = generation: kernel.TimeoutWP
	evArrival             // request-generator arrival
)

type event struct {
	tick uint64
	seq  uint64
	kind eventKind
	a, b uint64
	fn   func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Machine is the virtual machine.
type Machine struct {
	Bin   *compile.Binary
	K     *kernel.Kernel
	Stats *kernel.Stats
	Mem   []byte

	cfg Config
	machState
	rng     *rand.Rand
	threads []*Thread
	cores   []*Core
	runq    []*Thread
	events  eventHeap

	decoded []isa.Instr // indexed by PC; Len==0 means not an instruction start

	// ops is the dense op stream the fast tier executes: the decoded
	// instructions in address order, one fastOp each, so a straight-line
	// run is one contiguous slice (see fastOp). ops[0] is a sentinel that
	// refuses entry. opAt[pc] is the index of the instruction starting at
	// pc, 0 for non-starts. Both are built once in New (buildOps).
	ops    []fastOp
	opAt   []uint32
	fastOK bool // config admits the fast path at all (computed once)

	// sbs[i] is the superblock a block decision at op i covers, with its
	// footprint, built once in New (buildOps) from the per-pc line
	// footprints; it is indexed by op, not pc, to stay the size of the op
	// stream. enterBlock evaluates the footprint once per block edge, for
	// blockChecked to test against the armed window, chunkLen against the
	// other cores' blocks and DPOR segment recording to fold in.
	sbs []superblock

	fastCores []*Core // scratch: cores active in the current window

	curCore *Core // core whose thread is currently executing (for EpochChanged)

	runnableBuf []int // scratch for SchedPoint.Runnable, reused across decisions

	// server workload state
	reqArrivals map[int]uint64
	reqQueue    []int
	reqWaiters  []*Thread

	// results
	Output    []int64
	Latencies []uint64
	Faults    []string
	reason    string

	// live counts the threads not yet done, so the Run loop's completion
	// test does not scan the thread table every iteration. Derived state:
	// maintained by startAt and exitThread, recomputed on Restore.
	live int

	// epochBlocked counts the threads blocked on epoch/pause, so the
	// kernel-entry waiter checks return without scanning the thread table
	// when no one can possibly wake. Derived state: maintained by
	// Suspend/Resume, recomputed on Restore.
	epochBlocked int

	// Copy-on-write snapshot support (snapshot.go). shadow is the page
	// directory as of the last Snapshot/Restore (all zeroChunk at birth):
	// memory equals it on every page whose pageDirty bit is clear, and
	// chunkDirty[c] is set whenever a page of chunk c is dirty. rsrc is the
	// draw-counting RNG source that makes the rng state restorable.
	shadow     pageDir
	pageDirty  [numPages]bool
	chunkDirty [numChunks]bool
	rsrc       *countingSource

	// Per-decision access-segment recording for DPOR (segment.go). segLimit
	// is the number of decision-delimited segments to record (0 = off).
	segLimit int
	segs     []Segment
	seg      Segment // segment currently being accumulated
}

// New creates a machine running bin under kernel k. The kernel's Machine is
// attached automatically.
func New(bin *compile.Binary, k *kernel.Kernel, cfg Config) (*Machine, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	if cfg.Costs.Quantum == 0 {
		cfg.Costs.Quantum = defaultQuantum
	}
	m := &Machine{
		Bin:   bin,
		K:     k,
		Stats: k.Stats,
		cfg:   cfg,
	}
	// Dirty tracking starts before the first write, on an all-zero
	// (possibly recycled) image every chunk of which shares zeroChunk: the
	// initial capture copies only the pages InitMem and Start wrote.
	m.Mem = imagePool.Get().(*memImage)[:]
	for i := range m.shadow {
		m.shadow[i] = zeroChunk
	}
	m.rsrc = newCountingSource(cfg.Seed)
	m.rng = rand.New(m.rsrc)
	for addr, v := range bin.InitMem {
		m.storeRaw(addr, 8, uint64(v))
	}
	// Pre-decode the binary for fast dispatch.
	decoded, starts, err := isa.DecodeProgram(bin.Code)
	if err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	m.decoded = decoded
	// Static line footprints for the watchpoint-aware fast path: use the
	// compiler's table when present, otherwise (hand-assembled binaries)
	// compute one here. buildOps only reads the table, so sharing the
	// Binary's slice across machines is safe.
	fps := bin.Footprints
	if fps == nil {
		if fps, err = compile.Footprints(bin.Code); err != nil {
			return nil, fmt.Errorf("vm: %w", err)
		}
	}
	if len(fps) != len(bin.Code) {
		return nil, fmt.Errorf("vm: footprint table covers %d of %d code bytes", len(fps), len(bin.Code))
	}
	m.buildOps(starts, fps)
	// The fast path is admissible at all only when the configuration
	// cannot observe per-instruction machine activity: no per-access cost
	// charging. Within an admissible run, trySuperstep still demotes
	// dynamically per window.
	m.fastOK = cfg.Dispatch != DispatchStep && cfg.Costs.AccessCheck == 0
	for i := 0; i < cfg.Cores; i++ {
		c := &Core{
			ID:        i,
			WP:        hw.NewRegisterFile(k.Cfg.NumWatchpoints),
			coreState: coreState{NextTimer: cfg.Costs.Quantum},
		}
		m.cores = append(m.cores, c)
	}
	k.SetMachine(m)
	if bin.Annotated != nil {
		k.SetARInfo(bin.Annotated.ByID)
	}
	if k.Symbolize == nil {
		k.Symbolize = func(pc uint32) int {
			if pos, ok := bin.PosAt(pc); ok {
				return pos.Line
			}
			return 0
		}
	}
	if cfg.Requests != nil {
		// Only the request generator records arrivals.
		m.reqArrivals = map[int]uint64{}
		if cfg.Requests.Count > 0 {
			m.scheduleArrival()
		}
	}
	return m, nil
}

// Start creates a thread executing the named function with one argument
// (placed in R8 per the calling convention).
func (m *Machine) Start(fn string, arg int64) (int, error) {
	entry, ok := m.Bin.Funcs[fn]
	if !ok {
		return -1, fmt.Errorf("vm: no function %q", fn)
	}
	return m.startAt(entry, arg)
}

func (m *Machine) startAt(entry uint32, arg int64) (int, error) {
	tid := len(m.threads)
	if tid >= compile.MaxThreads {
		return -1, fmt.Errorf("vm: thread limit (%d) reached", compile.MaxThreads)
	}
	t := &Thread{ID: tid, PC: entry, OnCore: -1}
	t.Regs[8] = arg
	sp := StackTopFor(tid)
	sp -= 8
	m.storeRaw(sp, 8, uint64(m.Bin.ExitStub))
	t.Regs[isa.RegSP] = int64(sp)
	t.Regs[isa.RegFP] = int64(sp)
	m.threads = append(m.threads, t)
	m.runq = append(m.runq, t)
	m.live++
	return tid, nil
}

// StackTopFor returns the initial stack pointer of a thread.
func StackTopFor(tid int) uint32 { return compile.StackTop(tid) }

// Thread returns thread tid (for tests and tools).
func (m *Machine) Thread(tid int) *Thread { return m.threads[tid] }

// NumThreads returns the number of threads ever created.
func (m *Machine) NumThreads() int { return len(m.threads) }

// Demotions counts, by reason, the decisions that kept work off the
// unchecked fast path, so a residency regression is diagnosable from a
// bench row rather than just visible in the aggregate percentage. Like the
// other fast-path telemetry it lives outside kernel.Stats (which must stay
// byte-identical across dispatch modes).
// Zero counters are omitted from JSON: a vanilla (watchpoint-free) run can
// only ever demote on timer edges.
//
// ArmedOverlap and Unbounded count block decisions, not basic blocks: a
// decision covers a superblock, which may span an unconditional JMP into
// the target's straight-line code, and a carried loop decision is counted
// once for all the iterations it covers in one window (see enterBlock).
type Demotions struct {
	// ArmedOverlap: block decisions run in checked mode because the block's
	// static footprint may overlap an armed register.
	ArmedOverlap uint64 `json:"armed_overlap,omitempty"`
	// Unbounded: block decisions run in checked mode because the block's
	// footprint is unbounded (indirect/pointer access the value-range
	// analysis could not bound, untracked SP/FP).
	Unbounded uint64 `json:"unbounded,omitempty"`
	// CheckedOverlap always reads 0: it counted block decisions inherited
	// through a checked-block merge budget, which is gone now that a loop
	// carries its checked decision (see enterBlock). The field stays because
	// the benchmark's vm.demotions.checked_overlap metric reads it; ROADMAP
	// item 9 is where the counter is retired.
	CheckedOverlap uint64 `json:"checked_overlap,omitempty"`
	// TimerEdge: superstep windows refused because a timer interrupt or
	// event was already due at window start.
	TimerEdge uint64 `json:"timer_edge,omitempty"`
	// WouldTrap: checked-mode accesses that matched an armed register; the
	// instruction replayed on the legacy path, which delivered the trap.
	WouldTrap uint64 `json:"would_trap,omitempty"`
}

// Telemetry is the VM's own instrumentation of a run. It lives outside
// kernel.Stats, which must stay byte-identical across dispatch modes (the
// differential gate).
type Telemetry struct {
	// FastInstructions / FastWindows report fast-path residency: how many
	// instructions retired on the basic-block fast path and in how many
	// superstep windows.
	FastInstructions uint64
	FastWindows      uint64
	// ChunkedInstructions counts the fast instructions retired in chunks
	// while at least two cores were active — each core's independent block
	// run back to back instead of one instruction per core per round.
	// Refused rounds, which run one op per core, are not counted, and
	// neither are windows with one active core, on any machine: there
	// every chunk is trivially the lone core's block.
	ChunkedInstructions uint64
	// Demotions breaks down why work left (or never reached) the unchecked
	// fast path; see the Demotions type.
	Demotions Demotions
	// Decision-point cost accounting: Decisions counts scheduler decision
	// points (a free core with two or more runnable threads);
	// DeltaArms/FullArms split watchpoint adoptions into those that found
	// the core already current and those that copied the canonical file.
	Decisions uint64
	// SamePickContinues always reads 0: it counted window boundaries that
	// kept an open block decision, which is gone now that a decision lives
	// inside one window (see enterBlock). The field stays because the
	// benchmark's vm.same_pick_continues metric reads it; ROADMAP item 9 is
	// where the counter is retired.
	SamePickContinues uint64
	DeltaArms         uint64
	FullArms          uint64
}

// Result summarizes a run.
type Result struct {
	Stats      *kernel.Stats
	Violations []trace.Violation
	Output     []int64
	Latencies  []uint64
	Faults     []string
	Reason     string // "completed", "max-ticks", "stopped", "deadlock"
	Ticks      uint64
	// Snapshot holds the final values of the globals a caller requested
	// via core.RunConfig.SnapshotVars (nil otherwise).
	Snapshot map[string]int64
	Telemetry
	// MemHash is the FNV-1a hash of final data memory, filled only when
	// the caller requested it (core.RunConfig.HashMemory).
	MemHash uint64
}

// Run executes until all threads finish, MaxTicks elapses, a violation
// callback requests a stop, or the machine deadlocks.
func (m *Machine) Run() *Result {
	m.mustLive("Run")
	for {
		first := 0 // the first core the core loop visits
		if m.pickCore > 0 {
			// Resumed from a snapshot taken inside Pick: the interrupted
			// iteration already ran its loop top and the cores before the
			// picking one, so it goes on at that core's pick. Running the
			// top again would adopt watchpoints and wake waiters that the
			// uninterrupted run adopts and wakes later.
			first, m.pickCore = m.pickCore-1, 0
		} else {
			// Fire due events.
			for len(m.events) > 0 && m.events[0].tick <= m.clock {
				ev := heap.Pop(&m.events).(event)
				m.fire(ev)
			}
			if m.K.Log.StopRequested() {
				m.reason = "stopped"
				break
			}
			if m.cfg.MaxTicks > 0 && m.clock >= m.cfg.MaxTicks {
				m.reason = "max-ticks"
				break
			}

			// Idle cores sit in the kernel: they adopt the canonical
			// watchpoint state immediately. The scan is batched behind
			// the coresBehind flag — EpochChanged raises it whenever the
			// canonical state advances, and it clears once every core has
			// caught up, so a run with no watchpoint churn never pays the
			// per-iteration loop.
			if m.coresBehind {
				behind := false
				for _, c := range m.cores {
					if c.WP.Epoch == m.K.Canon.Epoch {
						continue
					}
					if c.Cur == nil && c.BusyUntil <= m.clock {
						m.adoptCanon(c)
					} else {
						behind = true
					}
				}
				m.coresBehind = behind
			}
			if m.epochBlocked > 0 {
				m.checkEpochWaiters()
			}

			// Tiered execution: try to retire a whole trap-free,
			// syscall-free, event-free window of instructions in one
			// superstep before falling back to the one-instruction-at-a-time
			// loop below.
			if m.fastOK && m.trySuperstep() && len(m.cores) == 1 {
				// The only core is busy until the window's end. A window
				// that stopped at a syscall or HLT before any event, timer
				// or tick limit fell due leaves the loop top and the fast
				// tier nothing to do there: step the instruction in this
				// iteration. Else the rest of it would only advance the
				// clock.
				c := m.cores[0]
				m.clock = c.BusyUntil
				if m.blockLen(c.Cur.PC) != 0 || m.clock >= c.NextTimer ||
					(len(m.events) > 0 && m.events[0].tick <= m.clock) ||
					(m.cfg.MaxTicks > 0 && m.clock >= m.cfg.MaxTicks) {
					if len(m.events) > 0 && m.events[0].tick < m.clock {
						m.clock = m.events[0].tick
					}
					continue
				}
			}
		}

		stepped := false
		deferred := false
		for _, c := range m.cores[first:] {
			if c.BusyUntil > m.clock {
				continue
			}
			// Timer interrupt: a kernel entry that preempts.
			if m.clock >= c.NextTimer {
				c.NextTimer = m.clock + m.cfg.Costs.Quantum
				if c.Cur != nil {
					m.Stats.TimerInterrupts++
					m.kernelEntry(c, false, func() { m.preempt(c) })
					c.BusyUntil = m.clock + timerIntCost
					stepped = true
					continue
				}
			}
			if c.Cur == nil {
				m.schedule(c)
				// On a single-core fast-path machine, hand a freshly picked
				// thread's first instruction to a window opened at this same
				// clock instead of a legacy step: the window retires it with
				// the rest of the quantum in bulk. Timing is identical: round
				// 0 commits where step() would have, and with one core
				// nothing runs between. Several cores keep
				// schedule-then-step, since the deferred instruction could
				// reorder against a later core's step.
				if m.fastOK && c.Cur != nil && len(m.cores) == 1 {
					deferred = true
					continue
				}
			}
			if c.Cur != nil {
				m.step(c)
				stepped = true
			}
		}
		if deferred {
			// The scheduled thread guarantees progress next iteration: the
			// superstep takes the window, or (if its first block is not
			// fast-eligible) the core loop legacy-steps it at this same
			// clock.
			continue
		}

		if m.allDone() {
			m.reason = "completed"
			break
		}

		// Advance the clock to the next interesting moment.
		next := ^uint64(0)
		free := false
		for _, c := range m.cores {
			if c.BusyUntil > m.clock {
				if c.BusyUntil < next {
					next = c.BusyUntil
				}
			} else if c.Cur == nil {
				free = true
			}
		}
		if free && len(m.runq) > 0 {
			// A free core can pick this up next iteration.
			next = m.clock + 1
		}
		if len(m.events) > 0 && m.events[0].tick < next {
			next = m.events[0].tick
		}
		if next == ^uint64(0) {
			if stepped {
				m.clock++
				continue
			}
			m.reason = "deadlock"
			break
		}
		if next <= m.clock {
			next = m.clock + 1
		}
		m.clock = next
	}
	m.Stats.Ticks = m.clock
	return &Result{
		Stats:      m.Stats,
		Violations: m.K.Log.Violations,
		Output:     m.Output,
		Latencies:  m.Latencies,
		Faults:     m.Faults,
		Reason:     m.reason,
		Ticks:      m.clock,
		Telemetry:  m.tel,
	}
}

// fire dispatches one due event by kind. Wakes reproduce the lenient
// SetWakeAt semantics exactly: a thread that was already woken (or blocked
// for another reason) since the timer was armed is left alone.
func (m *Machine) fire(ev event) {
	if m.segRecording() {
		// Timer events are kernel activity interleaved into the current
		// inter-decision segment; their effects are not captured by the
		// access stream, so the segment conflicts with everything.
		m.seg.Global = true
	}
	switch ev.kind {
	case evWake:
		t := m.threads[int(ev.a)]
		if t.State == stBlocked && (t.Block == kernel.BlockPause || t.Block == kernel.BlockSleep) {
			t.WakeAt = 0
			m.tryWake(t)
		}
	case evWPTimeout:
		m.K.TimeoutWP(int(ev.a), ev.b)
	case evArrival:
		m.arrive()
	default:
		ev.fn()
	}
}

func (m *Machine) allDone() bool {
	return m.live == 0 && len(m.threads) > 0
}

// schedule assigns the next runnable thread to core c. Under a Config
// Policy the choice among multiple runnable threads is the policy's;
// otherwise, with small probability the scheduler picks a random runnable
// thread instead of the queue head, so different seeds explore different
// interleavings.
func (m *Machine) schedule(c *Core) {
	if len(m.runq) == 0 {
		return
	}
	i := 0
	if len(m.runq) > 1 {
		if m.cfg.Policy != nil {
			// Decision point: close the access segment accumulated since
			// the previous decision before consulting the policy, so a
			// snapshot taken inside Pick captures a consistent segment
			// count (see segment.go).
			if m.segRecording() {
				m.closeSegment()
			}
			m.runnableBuf = m.runnableBuf[:0]
			for _, t := range m.runq {
				m.runnableBuf = append(m.runnableBuf, t.ID)
			}
			m.pickCore = c.ID + 1
			i = m.cfg.Policy.Pick(SchedPoint{
				Seq:      m.schedSeq,
				Tick:     m.clock,
				Core:     c.ID,
				Runnable: m.runnableBuf,
			})
			m.pickCore = 0
			m.schedSeq++
			if i < 0 || i >= len(m.runq) {
				i = 0
			}
			if m.segRecording() {
				m.seg.Thread = m.runq[i].ID
			}
		} else if m.rng.Intn(4) == 0 {
			i = m.rng.Intn(len(m.runq))
		}
		// Counted once Pick has returned: a snapshot taken inside Pick
		// resumes into this same decision, which then counts it.
		m.tel.Decisions++
	} else if m.segRecording() {
		// A forced assignment (single runnable thread) changes the running
		// thread without consuming a decision, so the current segment spans
		// more than one thread's execution: treat it as conflicting with
		// everything rather than modeling multi-thread segments.
		m.seg.Global = true
	}
	t := m.runq[i]
	m.runq = append(m.runq[:i], m.runq[i+1:]...)
	t.State = stRunning
	t.OnCore = c.ID
	c.Cur = t
}

func (m *Machine) preempt(c *Core) {
	t := c.Cur
	if t == nil {
		return
	}
	t.State = stRunnable
	t.OnCore = -1
	c.Cur = nil
	m.runq = append(m.runq, t)
}

// fault kills a thread with an error.
func (m *Machine) fault(t *Thread, format string, args ...interface{}) {
	msg := fmt.Sprintf("thread %d at pc %#x: %s", t.ID, t.LastInstr, fmt.Sprintf(format, args...))
	t.Fault = msg
	m.Faults = append(m.Faults, msg)
	m.exitThread(t)
}

func (m *Machine) exitThread(t *Thread) {
	if m.segRecording() {
		m.seg.Global = true
	}
	if t.State != stDone {
		m.live--
	}
	t.State = stDone
	if t.OnCore >= 0 {
		m.cores[t.OnCore].Cur = nil
		t.OnCore = -1
	}
	m.K.ThreadExited(t.ID)
}

func (m *Machine) scheduleArrival() {
	gap := uint64(m.rng.ExpFloat64() * float64(m.cfg.Requests.MeanInterarrival))
	if gap == 0 {
		gap = 1
	}
	m.pushEvent(event{tick: m.clock + gap, kind: evArrival})
}

func (m *Machine) arrive() {
	if m.reqMade >= m.cfg.Requests.Count {
		return
	}
	id := m.reqMade
	m.reqMade++
	m.reqArrivals[id] = m.clock
	if len(m.reqWaiters) > 0 {
		w := m.reqWaiters[0]
		m.reqWaiters = m.reqWaiters[1:]
		w.Regs[0] = int64(id)
		m.Resume(w.ID)
	} else {
		m.reqQueue = append(m.reqQueue, id)
	}
	if m.reqMade < m.cfg.Requests.Count {
		m.scheduleArrival()
	}
}
