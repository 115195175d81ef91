package vm

import (
	"encoding/binary"

	"kivati/internal/compile"
	"kivati/internal/hw"
	"kivati/internal/isa"
)

// This file implements the tiered-execution fast path: basic-block
// superstep dispatch over a dense op stream, the decoded instructions laid
// out in address order with their dispatch kinds and run facts resolved
// once in New, so a straight-line run is one contiguous slice and one
// interpreter, execRun, retires it. A block decision covers a superblock:
// a straight-line run that ends in an unconditional JMP continues through
// the target's straight-line run, so a loop iteration (top: cond; JZ exit;
// body; JMP top) takes one decision rather than two. The superblock is one
// hop, at most two slices, with a footprint built once in New from the
// Binary's per-pc table. When the superblock is a whole iteration that
// moves neither SP nor FP (a loop superblock), a fresh decision on it,
// checked or not, is carried: execRun renews it at each back edge, so a
// loop costs one decision per window rather than one per iteration. A
// decision is scratch state of the window that made it: window admission
// drops every open decision, so none survives a kernel entry, a pick or a
// snapshot.
//
// execRun's per-op loop makes no call, so its index and operands stay in
// registers: checked mode pre-checks each accessing op outside it, the
// narrow loads and stores are inline, and control flow writes its
// successor straight to the thread's pc. Memory is the fixed-size image,
// so each access's own range test is the only bounds check it pays.
//
// The paper's performance argument (§5) is that the non-AR common case —
// no watchpoint armed anywhere — must be nearly free. The legacy Run loop
// pays full per-instruction freight for that case: a scheduler visit, a
// timer comparison, an event-heap peek and a clock-advance computation per
// retired instruction. The superstep collapses all of it: when no kernel
// activity is due and no scheduling decision can arise, the machine
// computes the largest window [clock, bound) in which the legacy loop
// provably does nothing but retire straight-line instructions, executes
// the whole window, and charges cost in bulk. One executor, runWindow,
// retires every window at any count of active cores, in lockstep rounds
// grouped into chunks: the first active core leads, its open block sets the
// chunk length and it alone may stop inside a chunk; the other cores then
// retire the same number of ops back to back, which is exact when their
// blocks cannot stop and all footprints are inside memory and pairwise
// disjoint, since instructions of different cores that touch disjoint
// memory commute. Where they are not, the rounds run as chunks of one op
// per core. With one active core every chunk is the lead's block.
//
// Armed watchpoints do not end the window. At every block edge the
// dispatcher compares the block's static address footprint (compile-time
// table, evaluated against the thread's live SP/FP) with the core's armed
// registers: a provably disjoint block retires unchecked exactly as in the
// vanilla case, and an overlapping or unbounded block retires in *checked*
// mode, where each access is pre-checked against the register file before
// committing — an access that would trap bails out pre-commit and replays
// on the legacy path, which records it and delivers the trap. Everything
// observable — event delivery, timer interrupts, scheduling decisions,
// traps, rng consumption, per-thread instruction ticks — happens at
// exactly the clock values the legacy loop would have used, so execution
// is bit-identical (the differential gate in fastpath_test.go holds the
// interpreter to that).

// fastOp is one instruction of the dense op stream the fast tier executes:
// the decoded instruction laid out in address order with its dispatch kind
// resolved, its own and fall-through pcs, and the static facts of the
// straight-line run (line) that starts at it. A line is thus one contiguous
// slice of Machine.ops; the superblock a block decision covers (see
// superblock) is at most two.
type fastOp struct {
	kind       uint8 // okXXX dispatch kind
	rd, ra, rb uint8
	sz         uint8
	// safe reports that no op of the line can fault in the fast tier by
	// itself: no DIV/MOD (division by zero) and no op the fast tier refuses.
	// Memory accesses can still leave data memory; the chunked lockstep
	// rules that out with the evaluated footprint.
	safe bool
	// line is how many ops the fast tier may retire starting here without
	// leaving straight-line code: 0 for kernel boundaries (SYS, HLT need the
	// kernel), 1 for control flow (the block ends but the op itself is
	// fast-executable), and 1 + the next op's line otherwise.
	line uint16
	imm  int64
	addr uint32 // absolute address or jump target
	pc   uint32
	next uint32 // fall-through pc
	// tidx is the op index of the jump target addr (JMP, JZ, JNZ, CALL), so
	// execRun can hand the next block its op without a pc lookup.
	tidx uint32
}

// superblock is what a block decision at an op covers (Machine.sbs, indexed
// by op): the op's line, plus the target's line when the line ends in a JMP
// whose target is fast-enterable. One hop, never chained, so a superblock
// has no cycles and is at most two slices of the op stream. fp is its
// static footprint relative to the registers at the op, safe holds when
// every line it covers is safe, and run is its length in ops.
//
// loop marks a superblock that is a whole loop iteration: it ends in a JZ
// or JNZ that can fall through or jump back to its own first op, it is not
// cut short by saturation, and none of its ops moves SP or FP. MiniC's
// `top: cond; JZ exit; body; JMP top` gives one at the body: body, JMP,
// cond, JZ. Entered again at the back edge by the same thread under the
// same (frozen) watchpoint registers, such a superblock has the same
// evaluated footprint and so the same decision, which execRun renews there
// instead of returning to enterBlock (see renewLoop).
type superblock struct {
	fp     isa.Footprint
	run    uint16
	safe   bool
	loop   bool
	stores bool // an op it covers may write memory (see Machine.winStores)
}

// Fast-interpreter dispatch kinds, resolved at decode time so execRun jumps
// straight to a handler. The 8-byte memory forms, the stack and control
// ops and the ALU ops are specialised; the narrow widths share one kind per
// addressing form (okLD, okST, okLDR, okSTR). okNone marks what the fast
// tier must refuse: kernel boundaries, and the sentinel op non-starts map
// to. Every kind that accesses memory is okLD or later; checked mode runs
// the kinds before it without a pre-check.
const (
	okNone uint8 = iota
	okNOP
	okMOVI
	okMOVR
	okADD
	okSUB
	okMUL
	okAND
	okOR
	okXOR
	okSHL
	okSHR
	okCEQ
	okCNE
	okCLT
	okCLE
	okCGT
	okCGE
	okDIV
	okMOD
	okADDI
	okLD
	okLD8
	okST
	okST8
	okLDR
	okLDR8
	okSTR
	okSTR8
	okPUSH
	okPOP
	okPUSHM
	okJMP
	okJZ
	okJNZ
	okCALL
	okCALLM
	okRET
)

// aluKinds maps the register-register ALU opcodes, OpADD through OpCGE,
// to their dispatch kinds.
var aluKinds = [...]uint8{
	okADD, okSUB, okMUL, okDIV, okMOD, okAND, okOR, okXOR, okSHL, okSHR,
	okCEQ, okCNE, okCLT, okCLE, okCGT, okCGE,
}

func opKind(op isa.Op) uint8 {
	wide := op&3 == 3 // an 8-byte member of a width group
	switch {
	case op == isa.OpNOP:
		return okNOP
	case op == isa.OpMOVQ || op == isa.OpMOVL:
		return okMOVI
	case op == isa.OpMOVR:
		return okMOVR
	case op >= isa.OpADD && op <= isa.OpCGE:
		return aluKinds[op-isa.OpADD]
	case op == isa.OpADDI:
		return okADDI
	case op >= isa.OpLD && op < isa.OpLD+4:
		return pick(wide, okLD8, okLD)
	case op >= isa.OpST && op < isa.OpST+4:
		return pick(wide, okST8, okST)
	case op >= isa.OpLDR && op < isa.OpLDR+4:
		return pick(wide, okLDR8, okLDR)
	case op >= isa.OpSTR && op < isa.OpSTR+4:
		return pick(wide, okSTR8, okSTR)
	case op == isa.OpPUSH:
		return okPUSH
	case op == isa.OpPOP:
		return okPOP
	case op >= isa.OpPUSHM && op < isa.OpPUSHM+4:
		return okPUSHM
	case op == isa.OpJMP:
		return okJMP
	case op == isa.OpJZ:
		return okJZ
	case op == isa.OpJNZ:
		return okJNZ
	case op == isa.OpCALL:
		return okCALL
	case op == isa.OpCALLM:
		return okCALLM
	case op == isa.OpRET:
		return okRET
	}
	return okNone
}

// regMask masks a register index to the register file.
const regMask = isa.NumRegs - 1

// maxAddr8 is the highest address at which an 8-byte access stays inside
// data memory.
const maxAddr8 = compile.MemSize - 8

func pick(c bool, a, b uint8) uint8 {
	if c {
		return a
	}
	return b
}

// buildOps lays the decoded instructions out as the dense op stream and
// fills the pc->index table. starts is the list of instruction-start pcs in
// ascending order; op i+1 is the instruction at starts[i], and op 0 is the
// sentinel every non-start pc maps to (kind okNone, line 0). The first walk
// is in reverse so each op's line and safe flag are O(1) from its
// successor's; compile.Footprints runs the same reverse walk, so fps[pc]
// covers (a superset of) the line dispatched from pc. The second walk, also
// in reverse, builds the superblock table: it extends every line that ends
// in a JMP to a fast-enterable target by the target's line, and carries the
// target's footprint back through the line's ops with isa.Footprint.Rebase,
// as compile.suffixFootprints does, so its stack offsets are relative to
// the superblock's entry SP/FP, and marks the loop superblocks.
func (m *Machine) buildOps(starts []uint32, fps []isa.Footprint) {
	m.opAt = make([]uint32, len(m.decoded))
	m.ops = make([]fastOp, len(starts)+1)
	m.ops[0].pc = ^uint32(0) // matches no thread pc
	// keeps[i]: op i is fast-enterable and no op of its line moves SP or FP.
	// stores[i]: an op of op i's line writes memory.
	keeps := make([]bool, len(m.ops)+1)
	stores := make([]bool, len(m.ops)+1)
	for i := len(starts) - 1; i >= 0; i-- {
		pc := starts[i]
		in := m.decoded[pc]
		o := &m.ops[i+1]
		*o = fastOp{
			kind: opKind(in.Op), rd: in.Rd, ra: in.Ra, rb: in.Rb, sz: in.Sz,
			imm: in.Imm, addr: in.Addr, pc: pc, next: pc + uint32(in.Len),
		}
		m.opAt[pc] = uint32(i + 1)
		if in.Op.IsKernelBoundary() {
			continue // okNone, line 0: the legacy path must execute it
		}
		o.safe = o.kind != okNone && o.kind != okDIV && o.kind != okMOD
		o.line = 1
		keeps[i+1] = in.KeepsFrame()
		stores[i+1] = storesMem(o.kind)
		if in.Op.IsControlFlow() || i+1 == len(starts) {
			continue
		}
		if nx := &m.ops[i+2]; nx.line > 0 {
			o.line = saturate(int(nx.line) + 1)
			o.safe = o.safe && nx.safe
			keeps[i+1] = keeps[i+1] && keeps[i+2]
			stores[i+1] = stores[i+1] || stores[i+2]
		}
	}
	for i := range m.ops {
		switch o := &m.ops[i]; o.kind {
		case okJMP, okJZ, okJNZ, okCALL:
			o.tidx = m.opIndex(o.addr)
		}
	}
	m.sbs = make([]superblock, len(m.ops))
	var tail isa.Footprint // the target's footprint at op i's entry registers
	tgt := uint32(0)       // the superblock target of op i's line, 0 for none
	for i := len(m.ops) - 1; i > 0; i-- {
		o := &m.ops[i]
		switch {
		case o.kind == okJMP && m.ops[o.tidx].line > 0:
			// A JMP moves neither SP nor FP: the target's footprint holds
			// as it is.
			tgt, tail = o.tidx, fps[m.ops[o.tidx].pc]
		case tgt != 0 && o.line > 1 && o.line < maxLine:
			tail = tail.Rebase(m.decoded[o.pc])
		default:
			tgt = 0 // no JMP ends the line, or a saturated line stops short
		}
		sb := &m.sbs[i]
		*sb = superblock{fp: fps[o.pc], run: o.line, safe: o.safe, stores: stores[i]}
		end, keep := uint32(i)+uint32(o.line)-1, keeps[i] // the closing op
		if tgt != 0 {
			t := &m.ops[tgt]
			sb.fp = sb.fp.UnionWith(tail)
			sb.run = saturate(int(o.line) + int(t.line))
			sb.safe = o.safe && t.safe
			sb.stores = sb.stores || stores[tgt]
			end, keep = tgt+uint32(t.line)-1, keep && keeps[tgt]
		}
		if e := &m.ops[end]; keep && sb.run < maxLine &&
			(e.kind == okJZ || e.kind == okJNZ) && (e.next == o.pc || e.addr == o.pc) {
			sb.loop = true
		}
	}
}

// storesMem reports whether ops of dispatch kind k write memory.
func storesMem(k uint8) bool {
	switch k {
	case okST, okST8, okSTR, okSTR8, okPUSH, okPUSHM, okCALL, okCALLM:
		return true
	}
	return false
}

// maxLine is the longest run an op records; longer straight-line code is
// entered again where a saturated run stops.
const maxLine = ^uint16(0)

func saturate(n int) uint16 { return uint16(min(n, int(maxLine))) }

// opIndex returns the op-stream index of the instruction at pc (0, the
// sentinel, for pcs that are not instruction starts).
func (m *Machine) opIndex(pc uint32) uint32 {
	if int(pc) >= len(m.opAt) {
		return 0
	}
	return m.opAt[pc]
}

// blockLen returns the straight-line run length of the op at pc: the
// number of instructions the fast tier may retire from pc without leaving
// straight-line code (0 where it must not enter).
func (m *Machine) blockLen(pc uint32) uint16 { return m.ops[m.opIndex(pc)].line }

// trySuperstep retires one superstep window if the machine state admits
// one and reports whether it did; otherwise it returns false leaving all
// state untouched so the legacy loop handles the current clock. Demotion
// conditions (any one suffices):
//
//   - an event is due at the current clock;
//   - a running core has a timer interrupt due;
//   - a free core exists while the run queue is non-empty (a scheduling
//     decision, and under the built-in scheduler an rng consultation, is
//     due at this clock).
//
// Armed watchpoints and epoch/pause waiters no longer demote the window.
// Watchpoint state is frozen inside a window — register files change only
// on kernel entries (syscalls, traps, timer interrupts), none of which
// occur mid-window — so block-edge footprint decisions (see blockChecked)
// hold for the whole block, and the per-tick epoch-waiter checks the
// legacy loop would run are provably no-ops: minCoreEpoch cannot change
// mid-window, and time-based wakes arrive via events, which bound the
// window.
//
// The window bound is the earliest clock at which the legacy loop would do
// anything besides retire an instruction: a running core's next timer
// interrupt, a busy core's wake-up (it reschedules or resumes then), a
// free core's next idle timer reset, the next event, and MaxTicks.
func (m *Machine) trySuperstep() bool {
	if len(m.events) > 0 && m.events[0].tick <= m.clock {
		m.tel.Demotions.TimerEdge++
		return false
	}
	t0 := m.clock
	bound := ^uint64(0)
	active := m.fastCores[:0]
	for _, c := range m.cores {
		if c.BusyUntil > t0 {
			// Mid-cost (or mid-instruction) core: the legacy loop skips
			// it entirely until BusyUntil, where it reschedules, resumes
			// or has its timer checked — end the window there.
			if c.BusyUntil < bound {
				bound = c.BusyUntil
			}
			continue
		}
		if c.Cur != nil {
			if t0 >= c.NextTimer {
				m.tel.Demotions.TimerEdge++
				return false
			}
			if c.NextTimer < bound {
				bound = c.NextTimer
			}
			// A decision lives inside one window: the first block of this
			// one decides afresh.
			c.dropBlock()
			active = append(active, c)
			continue
		}
		// Free core. If anything is runnable it schedules right now.
		if len(m.runq) > 0 {
			return false
		}
		nt := c.NextTimer
		if t0 >= nt {
			// The legacy loop would reset the idle core's timer at t0
			// (no interrupt is delivered with nothing running); mirror
			// it so the post-window timer phase is identical.
			nt = t0 + m.cfg.Costs.Quantum
			c.NextTimer = nt
		}
		if nt < bound {
			bound = nt
		}
	}
	m.fastCores = active
	if len(active) == 0 {
		return false
	}
	if len(m.events) > 0 && m.events[0].tick < bound {
		bound = m.events[0].tick
	}
	if m.cfg.MaxTicks > 0 && m.cfg.MaxTicks < bound {
		bound = m.cfg.MaxTicks
	}
	if bound <= t0 {
		return false
	}

	m.winStores = false
	// Lockstep rounds: in the legacy loop every aligned running core
	// retires one instruction per tick (instrCost), in core order within
	// the tick. Round k therefore executes at clock t0 + k, and the window
	// holds bound - t0 rounds.
	rounds, stopIdx := m.runWindow(active, bound-t0)
	var total uint64
	for i, c := range active {
		cnt := rounds
		if i < stopIdx {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		// Bulk cost charge: identical to cnt legacy steps.
		c.BusyUntil = t0 + cnt*instrCost
		total += cnt
	}
	if total == 0 {
		return false
	}
	m.Stats.Instructions += total
	m.tel.FastInstructions += total
	m.tel.FastWindows++
	return true
}

// enterBlock makes the block-edge decision for core c's thread at its
// current pc, the one place the window executor decides: the length of the
// run the decision covers (fastLeft) and checked or unchecked execution
// (see blockChecked). The run is the op's superblock run, through a closing
// JMP into the target's line. The superblock's footprint is evaluated here,
// once, for every reader that needs it: blockChecked when something is
// armed, chunkLen when several cores are active, and DPOR segment
// recording, which folds it into the segment open at the block's entry.
// It returns false, deciding nothing, when the pc is not fast-enterable: a
// kernel boundary or not an instruction start.
//
// A decision on a loop superblock, checked or not, is carried: fastLoop
// names the superblock, and execRun renews the decision at each back edge
// (see renewLoop) until the loop exits, the run stops or the window ends.
// Renewal skips exactly what a fresh decision here would redo with the
// same outcome, so a checked decision is counted once per window.
// Recording needs no fresh entry either: the footprint covers every
// iteration, and a segment cannot close inside a window.
func (m *Machine) enterBlock(c *Core) bool {
	t := c.Cur
	pc := t.PC
	idx := c.fastIdx // the last run's successor, if it names pc's op
	if int(idx) >= len(m.ops) || m.ops[idx].pc != pc {
		idx = m.opIndex(pc)
	}
	if m.ops[idx].line == 0 {
		return false
	}
	sb := &m.sbs[idx]
	c.fastLeft = sb.run
	c.fastIdx = idx
	m.winStores = m.winStores || sb.stores
	armed := c.WP.ArmedCount() != 0
	rec := m.segRecording()
	class := fpUnbounded // read only after an evaluation
	if armed || rec || len(m.fastCores) > 1 {
		class = m.evalFootprint(c, t, &sb.fp)
	}
	c.fastChecked = armed && m.blockChecked(c, t, class)
	c.fastLoop = 0
	if sb.loop {
		c.fastLoop = idx
	}
	if rec {
		m.segFootprint(c, class)
	}
	return true
}

// renewLoop is called by execRun when core c's carried loop decision is
// used up: if the thread is back at the loop's first op, it opens the same
// decision for the next iteration and reports true; if the loop exited, it
// ends the carry. The decision stands as made: the thread is the same, the
// watchpoint registers are frozen inside the window, and the loop moves
// neither SP nor FP, so the footprint evaluates to the same intervals and
// blockChecked to the same mode, checked or unchecked.
func (m *Machine) renewLoop(c *Core, t *Thread) bool {
	i := c.fastLoop
	if m.ops[i].pc != t.PC {
		c.fastLoop = 0
		return false
	}
	c.fastLeft, c.fastIdx = m.sbs[i].run, i
	return true
}

// dropBlock abandons core c's open block decision and its evaluated
// footprint, so the next block entry decides afresh.
func (c *Core) dropBlock() {
	c.fastLeft = 0
	c.fastLoop = 0
	c.fpInMem = false
}

// runWindow is the window executor: it retires up to n lockstep rounds of
// the active cores, one chunk after another, and reports where it stopped —
// every active core retired rounds instructions, and the cores before
// stopIdx one more. The first active core leads: its open block bounds each
// chunk, and it alone may stop inside one. A carried loop decision does not
// bound the lead's chunk: execRun renews it at each back edge and returns
// early, without a stop, where the loop exits. When it stops at op j, the other
// cores retire exactly j ops, which is where round-by-round lockstep stops
// too: in the legacy loop the lead's round-j instruction commits first in
// its tick, so every core replays round j and later on the legacy path.
// With one active core every chunk is the lead's block. Rounds that
// chunkLen refuses run as chunks of one op per core; there a core i that
// cannot proceed (kernel boundary, faulting instruction, or a checked
// access that would trap) stops the window after the round's instructions
// of cores before it and before those of cores after it.
func (m *Machine) runWindow(active []*Core, n uint64) (rounds uint64, stopIdx int) {
	lead := active[0]
	for k := uint64(0); k < n; {
		if lead.fastLeft == 0 && !m.enterBlock(lead) {
			return k, 0
		}
		l, hold := n-k, uint64(0)
		if lead.fastLoop == 0 {
			l = min(l, uint64(lead.fastLeft))
		}
		if len(active) > 1 {
			l, hold = m.chunkLen(active, l)
		}
		if l > 0 {
			j, ok := m.execRun(lead, l)
			if j == 0 {
				return k, 0 // no follower may run a round the lead replays
			}
			if len(active) > 1 {
				for _, c := range active[1:] {
					if f, _ := m.execRun(c, j); f != j {
						panic("vm: chunk follower bailed")
					}
				}
				m.tel.ChunkedInstructions += j * uint64(len(active))
			}
			k += j
			if !ok {
				return k, 0
			}
			continue
		}
		for end := min(k+hold, n); k < end; k++ {
			for i, c := range active {
				if c.fastLeft == 0 && !m.enterBlock(c) {
					return k, i
				}
				if _, ok := m.execRun(c, 1); !ok {
					return k, i
				}
			}
		}
	}
	return n, 0
}

// chunkLen narrows the lead's chunk of l ops — the rest of its open block,
// or of the window for a carried loop decision — to the rounds that two or
// more active cores may retire as one chunk each, back to back in core
// order. The lead may be checked or carry ops that can fault, since only it
// may stop inside the chunk. A chunk is exact when no follower can stop
// inside it and no two cores' instructions can observe each other, so every
// follower's open block must be unchecked and its run free of ops that can
// fault, and every active core's footprint — evaluated at the block's entry
// — must be bounded, inside data memory and disjoint from every other
// core's. A carried loop's footprint is the same in every iteration, so the
// lead's holds across its back edges.
//
// It returns the narrowed chunk and a hold of 0. When it refuses, it
// returns a chunk of 0 and a hold of at least 1: the number of rounds for
// which the refusal provably stands, because the blocks that caused it
// stay open that long. The window runs those rounds one op per core
// without re-testing.
//
// Followers' blocks are entered here, in core order, stopping at the first
// core that is not eligible, and only while the lead cannot stop: each
// enterBlock then happens where round-by-round lockstep would make it in the
// coming round — cores before it retire their round instruction without
// stopping, and nothing another core does can change a decision (watchpoint
// state is frozen inside a window and a decision reads only the core's own
// thread) — so every counter the decisions feed stays identical. A lead
// that may stop at its first op would make such an entry premature, so a
// follower with no open block then refuses for one round.
func (m *Machine) chunkLen(active []*Core, l uint64) (chunk, hold uint64) {
	lead := active[0]
	if !lead.fpInMem {
		return 0, uint64(lead.fastLeft)
	}
	leadStops := lead.fastChecked || !m.sbs[lead.fastIdx].safe
	for i := 1; i < len(active); i++ {
		c := active[i]
		if c.fastLeft == 0 && (leadStops || !m.enterBlock(c)) {
			return 0, 1
		}
		if c.fastChecked || !c.fpInMem || !m.sbs[c.fastIdx].safe {
			return 0, uint64(c.fastLeft)
		}
		for _, d := range active[:i] {
			if overlaps(c.fpRanges[:c.fpN], d.fpRanges[:d.fpN]) {
				return 0, uint64(min(c.fastLeft, d.fastLeft))
			}
		}
		l = min(l, uint64(c.fastLeft))
	}
	return l, 0
}

// Footprint evaluation outcomes (see evalFootprint).
const (
	fpBounded   = iota // c.fpRanges holds the evaluated intervals
	fpUnbounded        // the analysis could not bound an access of the run
	fpEscapes          // a stack interval leaves [0, 2^32) after evaluation
)

// evalFootprint evaluates the static footprint f of a run against thread
// t's live SP/FP into core c's fpRanges — the absolute interval plus the SP
// and FP intervals — and sets fpInMem when every interval lies inside data
// memory. enterBlock calls it once per block edge; blockChecked tests the
// ranges against the armed registers, chunkLen against the other cores'
// blocks, and segFootprint folds them into the DPOR segment.
func (m *Machine) evalFootprint(c *Core, t *Thread, f *isa.Footprint) int {
	c.fpN = 0
	c.fpInMem = false
	if f.Unbounded {
		return fpUnbounded
	}
	n, top := 0, uint32(0)
	if f.AbsHi > f.AbsLo {
		c.fpRanges[0] = hw.AddrRange{Lo: f.AbsLo, Hi: f.AbsHi}
		n, top = 1, f.AbsHi
	}
	if f.SPHi > f.SPLo {
		r, ok := stackRange(t.Regs[isa.RegSP], f.SPLo, f.SPHi)
		if !ok {
			return fpEscapes
		}
		c.fpRanges[n] = r
		n, top = n+1, max(top, r.Hi)
	}
	if f.FPHi > f.FPLo {
		r, ok := stackRange(t.Regs[isa.RegFP], f.FPLo, f.FPHi)
		if !ok {
			return fpEscapes
		}
		c.fpRanges[n] = r
		n, top = n+1, max(top, r.Hi)
	}
	c.fpN = uint8(n)
	c.fpInMem = int(top) <= len(m.Mem)
	return fpBounded
}

// stackRange evaluates the register-relative offset interval [lo, hi)
// against the register value base. ok is false when the interval leaves
// [0, 2^32): the accesses would wrap or fault.
func stackRange(base, lo, hi int64) (r hw.AddrRange, ok bool) {
	lo64 := int64(uint32(base)) + lo
	hi64 := int64(uint32(base)) + hi
	if lo64 < 0 || hi64 > int64(^uint32(0)) {
		return r, false
	}
	return hw.AddrRange{Lo: uint32(lo64), Hi: uint32(hi64)}, true
}

// blockChecked decides, at a block edge, whether the run enterBlock
// decided at the core's pc must execute with per-access watchpoint checks
// on core c. False — the common case — means the block's static
// footprint is provably disjoint from every armed register that could trap
// thread t, so execRun may commit every access unchecked (Match would
// return -1 for all of them). enterBlock asks only while something is
// armed. class is the outcome of the block's footprint evaluation: a
// bounded footprint is tested as its evaluated intervals, and an unbounded
// or escaping one as the whole address space, so it is checked exactly
// when some armed register can trap t (registers exempt for t under
// LocalOf — optimization 3 — cannot). A checked decision is counted by its
// cause.
func (m *Machine) blockChecked(c *Core, t *Thread, class int) bool {
	ranges := c.fpRanges[:c.fpN]
	if class != fpBounded {
		ranges = wholeSpace[:]
	}
	if !c.WP.MayMatchRanges(t.ID, ranges) {
		return false
	}
	if class == fpUnbounded {
		m.tel.Demotions.Unbounded++
	} else {
		m.tel.Demotions.ArmedOverlap++
	}
	return true
}

// wholeSpace is the footprint blockChecked tests for a run it cannot bound:
// [0, 2^32-1) overlaps every register that Match can fire on.
var wholeSpace = [1]hw.AddrRange{{Lo: 0, Hi: ^uint32(0)}}

// wouldTrap is the checked-mode access pre-check: it reports whether the
// access would hit an armed register, in which case the instruction must
// bail out pre-commit and replay on the legacy path, which records the
// access and delivers the trap (before- or after-access, per the hardware
// model) with identical state at the identical clock.
func (m *Machine) wouldTrap(c *Core, t *Thread, addr uint32, sz uint8, typ hw.AccessType) bool {
	if c.WP.Match(t.ID, addr, sz, typ) >= 0 {
		m.tel.Demotions.WouldTrap++
		return true
	}
	return false
}

// opTraps is checked mode's pre-check of op o's accesses, made before
// anything of the op commits: it reports whether the op must stop the run
// because an access would trap (see wouldTrap). Multi-access ops (PUSHM,
// CALLM) check all their accesses; an out-of-bounds access stops the run
// without a check, as the op's own bounds test would.
func (m *Machine) opTraps(c *Core, t *Thread, o *fastOp) bool {
	r := &t.Regs
	switch o.kind {
	case okLD, okLD8:
		return m.accessTraps(c, t, o.addr, o.sz, hw.Read)
	case okST, okST8:
		return m.accessTraps(c, t, o.addr, o.sz, hw.Write)
	case okLDR, okLDR8:
		return m.accessTraps(c, t, uint32(r[o.ra&regMask]+o.imm), o.sz, hw.Read)
	case okSTR, okSTR8:
		return m.accessTraps(c, t, uint32(r[o.ra&regMask]+o.imm), o.sz, hw.Write)
	case okPUSH, okCALL:
		return m.accessTraps(c, t, uint32(r[isa.RegSP])-8, 8, hw.Write)
	case okPOP, okRET:
		return m.accessTraps(c, t, uint32(r[isa.RegSP]), 8, hw.Read)
	case okPUSHM, okCALLM:
		sz := o.sz
		if o.kind == okCALLM {
			sz = 8 // the target-pc read
		}
		sp := uint32(r[isa.RegSP]) - 8
		if !m.inBounds(o.addr, sz) || !m.inBounds(sp, 8) {
			return true
		}
		return m.wouldTrap(c, t, o.addr, sz, hw.Read) || m.wouldTrap(c, t, sp, 8, hw.Write)
	}
	return false
}

// accessTraps is opTraps for one access.
func (m *Machine) accessTraps(c *Core, t *Thread, addr uint32, sz uint8, typ hw.AccessType) bool {
	return !m.inBounds(addr, sz) || m.wouldTrap(c, t, addr, sz, typ)
}

// execRun is the fast interpreter: it retires up to n ops of core c's open
// block — its run from op fastIdx on, in the block's decided mode — with no
// kernel interaction and no access recording, and returns how many it
// retired and false if it stopped. It retires slice after slice of the op
// stream: the rest of the current line, and, when a superblock's closing
// JMP is retired, the target's line from tidx on; only the last op of a
// slice can be control flow. Each slice takes its ops off fastLeft. When
// that reaches zero the decision is used up: renewLoop opens the next
// iteration of a carried loop decision, and otherwise execRun returns,
// without a stop, after fewer than n ops if need be. On return fastIdx
// names the op at the thread's new pc where it is statically known
// (fall-through or a direct jump), which the next enterBlock checks
// against the pc before it uses it.
//
// In unchecked mode blockChecked has proven no access can hit an armed
// register. In checked mode opTraps pre-checks an op's accesses before
// anything of it commits, so a bail-out never leaves a partial commit, and
// the slice is that op and the ops after it that access no memory: the
// per-op loop below then makes no call, so its index and operands stay in
// registers. For the same reason the narrow
// loads and stores are inline and control flow writes its successor
// straight to t.PC and fastIdx. Every access is range-checked against the
// fixed-size image, which lets the compiler drop its bounds checks.
//
// It stops early, leaving the op it stopped at and all machine state
// untouched, when that op must execute on the legacy path instead: a kernel
// boundary (SYS, HLT), a faulting condition (division by zero,
// out-of-bounds access), or a checked access that would trap — the target's
// first op included. Stop-before semantics make the fallback exact: the
// legacy step re-executes the op at the identical clock with identical
// state, and the window ends. t.PC is set to the slice's successor before
// its first op and t.LastInstr after its last, and both at the op that
// stopped the run. Register indices are masked to the register file, which
// decoding already enforces, so the compiler drops their bounds checks.
func (m *Machine) execRun(c *Core, n uint64) (uint64, bool) {
	t := c.Cur
	r := &t.Regs
	mem := (*memImage)(m.Mem)
	for done := uint64(0); ; {
		i := c.fastIdx
		ops := m.ops[i : i+uint32(min(n-done, uint64(c.fastLeft), uint64(m.ops[i].line)))]
		if c.fastChecked {
			if m.opTraps(c, t, &ops[0]) {
				return stopRun(t, ops, 0, done)
			}
			k := 1 // kinds below okLD access no memory and need no pre-check
			for k < len(ops) && ops[k].kind < okLD {
				k++
			}
			ops = ops[:k]
		}
		t.PC, c.fastIdx = ops[len(ops)-1].next, i+uint32(len(ops))
		for j := range ops {
			o := &ops[j]
			switch o.kind {
			case okNOP:
			case okMOVI:
				r[o.rd&regMask] = o.imm
			case okMOVR:
				r[o.rd&regMask] = r[o.ra&regMask]
			case okADD:
				r[o.rd&regMask] = r[o.ra&regMask] + r[o.rb&regMask]
			case okSUB:
				r[o.rd&regMask] = r[o.ra&regMask] - r[o.rb&regMask]
			case okMUL:
				r[o.rd&regMask] = r[o.ra&regMask] * r[o.rb&regMask]
			case okAND:
				r[o.rd&regMask] = r[o.ra&regMask] & r[o.rb&regMask]
			case okOR:
				r[o.rd&regMask] = r[o.ra&regMask] | r[o.rb&regMask]
			case okXOR:
				r[o.rd&regMask] = r[o.ra&regMask] ^ r[o.rb&regMask]
			case okSHL:
				r[o.rd&regMask] = r[o.ra&regMask] << (uint64(r[o.rb&regMask]) & 63)
			case okSHR:
				r[o.rd&regMask] = int64(uint64(r[o.ra&regMask]) >> (uint64(r[o.rb&regMask]) & 63))
			case okCEQ:
				r[o.rd&regMask] = b2i(r[o.ra&regMask] == r[o.rb&regMask])
			case okCNE:
				r[o.rd&regMask] = b2i(r[o.ra&regMask] != r[o.rb&regMask])
			case okCLT:
				r[o.rd&regMask] = b2i(r[o.ra&regMask] < r[o.rb&regMask])
			case okCLE:
				r[o.rd&regMask] = b2i(r[o.ra&regMask] <= r[o.rb&regMask])
			case okCGT:
				r[o.rd&regMask] = b2i(r[o.ra&regMask] > r[o.rb&regMask])
			case okCGE:
				r[o.rd&regMask] = b2i(r[o.ra&regMask] >= r[o.rb&regMask])
			case okDIV:
				if r[o.rb&regMask] == 0 {
					return stopRun(t, ops, j, done) // division by zero: fault on the legacy path
				}
				r[o.rd&regMask] = r[o.ra&regMask] / r[o.rb&regMask]
			case okMOD:
				if r[o.rb&regMask] == 0 {
					return stopRun(t, ops, j, done)
				}
				r[o.rd&regMask] = r[o.ra&regMask] % r[o.rb&regMask]
			case okADDI:
				r[o.rd&regMask] = r[o.ra&regMask] + o.imm
			case okLD8:
				a := o.addr
				if a > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				r[o.rd&regMask] = int64(binary.LittleEndian.Uint64(mem[a:]))
			case okST8:
				a := o.addr
				if a > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				m.store8(mem, a, uint64(r[o.ra&regMask]))
			case okLDR8:
				a := uint32(r[o.ra&regMask] + o.imm)
				if a > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				r[o.rd&regMask] = int64(binary.LittleEndian.Uint64(mem[a:]))
			case okLD, okLDR:
				a := o.addr
				if o.kind == okLDR {
					a = uint32(r[o.ra&regMask] + o.imm)
				}
				if a > compile.MemSize-uint32(o.sz) {
					return stopRun(t, ops, j, done)
				}
				r[o.rd&regMask] = loadN(mem, a, o.sz)
			case okSTR8:
				a := uint32(r[o.ra&regMask] + o.imm)
				if a > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				m.store8(mem, a, uint64(r[o.rb&regMask]))
			case okST, okSTR:
				a, v := o.addr, r[o.ra&regMask]
				if o.kind == okSTR {
					a, v = uint32(r[o.ra&regMask]+o.imm), r[o.rb&regMask]
				}
				if a > compile.MemSize-uint32(o.sz) {
					return stopRun(t, ops, j, done)
				}
				m.markDirty(a, o.sz)
				for k := range o.sz {
					mem[a+uint32(k)] = byte(v >> (8 * k))
				}
			case okPUSH:
				sp := uint32(r[isa.RegSP]) - 8
				if sp > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				r[isa.RegSP] = int64(sp)
				m.store8(mem, sp, uint64(r[o.ra&regMask]))
			case okPOP:
				sp := uint32(r[isa.RegSP])
				if sp > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				r[o.rd&regMask] = int64(binary.LittleEndian.Uint64(mem[sp:]))
				r[isa.RegSP] = int64(sp + 8)
			case okPUSHM:
				a, sp := o.addr, uint32(r[isa.RegSP])-8
				if a > compile.MemSize-uint32(o.sz) || sp > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				v := loadN(mem, a, o.sz)
				r[isa.RegSP] = int64(sp)
				m.store8(mem, sp, uint64(v))
			case okJMP:
				t.PC, c.fastIdx = o.addr, o.tidx
			case okJZ:
				if r[o.ra&regMask] == 0 {
					t.PC, c.fastIdx = o.addr, o.tidx
				}
			case okJNZ:
				if r[o.ra&regMask] != 0 {
					t.PC, c.fastIdx = o.addr, o.tidx
				}
			case okCALL:
				sp := uint32(r[isa.RegSP]) - 8
				if sp > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				r[isa.RegSP] = int64(sp)
				m.store8(mem, sp, uint64(o.next))
				t.PC, c.fastIdx = o.addr, o.tidx
				t.Depth++
			case okCALLM:
				a, sp := o.addr, uint32(r[isa.RegSP])-8
				if a > maxAddr8 || sp > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				t.PC = uint32(binary.LittleEndian.Uint64(mem[a:]))
				r[isa.RegSP] = int64(sp)
				m.store8(mem, sp, uint64(o.next))
				t.Depth++
			case okRET:
				sp := uint32(r[isa.RegSP])
				if sp > maxAddr8 {
					return stopRun(t, ops, j, done)
				}
				t.PC = uint32(binary.LittleEndian.Uint64(mem[sp:]))
				r[isa.RegSP] = int64(sp + 8)
				if t.Depth > 0 {
					t.Depth--
				}
			default: // okNone: a kernel boundary
				return stopRun(t, ops, j, done)
			}
		}
		t.LastInstr = ops[len(ops)-1].pc
		done += uint64(len(ops))
		c.fastLeft -= uint16(len(ops))
		if (c.fastLeft == 0 && (c.fastLoop == 0 || !m.renewLoop(c, t))) || done == n {
			return done, true
		}
	}
}

// stopRun ends execRun at op j of the slice ops without executing it: the
// thread is left exactly as if the done ops of earlier slices and ops[:j]
// had retired one at a time. It returns the number of ops retired and
// false.
func stopRun(t *Thread, ops []fastOp, j int, done uint64) (uint64, bool) {
	t.PC = ops[j].pc
	if j > 0 {
		t.LastInstr = ops[j-1].pc
	}
	return done + uint64(j), false
}

// MemHash returns the FNV-1a hash of data memory, for differential
// comparison of final memory images across dispatch modes.
func (m *Machine) MemHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range m.Mem {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
