package valrange

import (
	"math"
	"sort"

	"kivati/internal/cfg"
	"kivati/internal/dataflow"
	"kivati/internal/isa"
)

// Options configures Analyze.
type Options struct {
	// StackLo/StackHi bound the thread-stack region of the address space
	// (half-open). An absolute store whose target range may intersect it
	// conservatively clobbers all frame-slot facts; stores provably outside
	// it (globals, shadow) leave them intact.
	StackLo, StackHi uint32
}

// Analysis holds the pass's product: a bounded footprint per indirect
// memory access whose address range was provable.
type Analysis struct {
	resolved map[uint32]isa.Footprint
}

// AccessFootprint returns a bounded footprint for the general-register
// indirect access at pc, expressed relative to the register state just
// before the instruction (the same coordinate system as isa.InstrFootprint,
// so compile's reverse suffix walk can rebase and union it). ok is false
// when the access was not proved.
func (a *Analysis) AccessFootprint(pc uint32) (isa.Footprint, bool) {
	if a == nil {
		return isa.Footprint{}, false
	}
	f, ok := a.resolved[pc]
	return f, ok
}

// Resolved returns the number of proved accesses (diagnostics).
func (a *Analysis) Resolved() int {
	if a == nil {
		return 0
	}
	return len(a.resolved)
}

// Analyze decodes a whole binary image and runs the pass over each function
// region. entries are the function entry PCs (compile.Binary.FuncEntries);
// code before the first entry (the image's exit stub) is left unanalyzed.
func Analyze(code []byte, entries []uint32, opt Options) (*Analysis, error) {
	decoded, _, err := isa.DecodeProgram(code)
	if err != nil {
		return nil, err
	}
	return AnalyzeDecoded(decoded, entries, opt), nil
}

// AnalyzeDecoded is Analyze over an already-decoded image (decoded is
// indexed by PC as produced by isa.DecodeProgram). Only the regions whose
// facts can be read are solved: those holding an indirect access, plus, for
// the image-wide escape verdict, any region whose pre-scan finds an
// instruction that could leak a frame address (see mayLeakFrame).
func AnalyzeDecoded(decoded []isa.Instr, entries []uint32, opt Options) *Analysis {
	return analyze(decoded, entries, opt, false)
}

// region is one function's code range [lo, hi): from its entry to the next
// entry (or the image end). read marks a region holding an indirect access
// — the only instructions whose facts AccessFootprint returns — and solve
// the regions pass 1 must run for the escape verdicts.
type region struct {
	lo, hi      uint32
	read, solve bool
}

// analyze is AnalyzeDecoded; every forces every region to be solved, which
// the tests use as the reference the selective solve must match.
func analyze(decoded []isa.Instr, entries []uint32, opt Options, every bool) *Analysis {
	a := &Analysis{resolved: map[uint32]isa.Footprint{}}
	ents := make([]uint32, 0, len(entries))
	for _, e := range entries {
		if int(e) < len(decoded) && decoded[e].Len > 0 {
			ents = append(ents, e)
		}
	}
	if len(ents) == 0 {
		return a
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })

	var regions []region
	for i, lo := range ents {
		if i > 0 && lo == ents[i-1] {
			continue
		}
		hi := uint32(len(decoded))
		for j := i + 1; j < len(ents); j++ {
			if ents[j] > lo {
				hi = ents[j]
				break
			}
		}
		rg := region{lo: lo, hi: hi, read: every, solve: every}
		if !every {
			rg.read, rg.solve = scanRegion(decoded, lo, hi)
		}
		regions = append(regions, rg)
	}

	// Pass 1: slot tracking on, to collect the escape verdicts. A frame
	// address that leaves its function through an unbounded channel (stored
	// to memory, passed to a callee or a spawned thread) can be written
	// through from anywhere, so such an escape disables slot tracking for
	// the whole image (register-only precision remains). An escape with a
	// known extent — begin_atomic arming a watchpoint on [addr, addr+size)
	// — only exposes that extent to foreign (kernel undo) writes, and only
	// while the arming activation is live (clear_ar at every subroutine
	// exit detaches the watchpoint before the frame pops, and callee frames
	// sit strictly below the caller's SP), so it merely poisons the
	// overlapped cells of its own function's rerun. A region pass 1 skips
	// has no escape to report, and the rerun and the resolution below only
	// visit regions whose facts are read.
	type fnRun struct {
		g  *cfg.BinGraph
		in []dataflow.Facts
		fa *fnAnalysis
	}
	runs := make([]fnRun, len(regions))
	solve := func(i int, slots bool, poison []escRange) {
		rg := regions[i]
		g := cfg.BuildBinary(decoded, rg.lo, rg.hi)
		wt := g.BackEdgeTargets()
		fa := &fnAnalysis{dec: decoded, g: g, opt: opt, slotsOK: slots, poison: poison}
		succs := make([][]int, len(g.Blocks))
		for n, b := range g.Blocks {
			succs[n] = b.Succs
		}
		in := dataflow.SolveEdges(succs, []int{0}, func(n int) bool { return wt[n] }, fa)
		runs[i] = fnRun{g: g, in: in, fa: fa}
	}
	escAll := false
	for i, rg := range regions {
		if rg.solve {
			solve(i, true, nil)
			escAll = escAll || runs[i].fa.escAll
		}
	}
	for i, rg := range regions {
		if !rg.read {
			continue
		}
		if escAll {
			solve(i, false, nil)
		} else if rs := runs[i].fa.escRanges; len(rs) > 0 {
			solve(i, true, rs)
		}
	}

	// Resolution: replay the transfer through each reachable block and
	// record a bounded footprint for every provable indirect access.
	for i, run := range runs {
		if !regions[i].read {
			continue
		}
		for n, b := range run.g.Blocks {
			st, ok := run.in[n].(*state)
			if !ok || st.bot {
				continue
			}
			st = st.clone()
			for _, pc := range b.PCs {
				in := decoded[pc]
				if isIndirectAccess(in) {
					if f, provable := resolveAccess(st, in); provable {
						a.resolved[pc] = f
					}
				}
				run.fa.step(st, in)
				if st.bot {
					break
				}
			}
		}
	}
	return a
}

// scanRegion walks the instructions of [lo, hi) once. read reports an
// indirect access; solve reports that pass 1 must run the region, because
// its facts are read or because mayLeakFrame flags an instruction.
func scanRegion(decoded []isa.Instr, lo, hi uint32) (read, solve bool) {
	for pc := lo; pc < hi; pc += uint32(decoded[pc].Len) {
		in := decoded[pc]
		if isIndirectAccess(in) {
			return true, true
		}
		solve = solve || mayLeakFrame(in, pc == lo)
	}
	return false, solve
}

// mayLeakFrame is the pre-scan rule for a region with no indirect access.
// The pass only ever has a frame-based value in SP at function entry, and,
// since frame addresses are materialized directly (DESIGN.md), one reaches a
// general register, memory or a callee only through an instruction that
// copies SP or FP: a MOVR, ADDI or ALU op writing a general register from
// either, a PUSH of either (except the prologue PUSH FP at the region
// entry, which saves the caller's FP, Top at entry), or an ST or STR
// storing either. A region without one has no escape for pass 1 to report.
func mayLeakFrame(in isa.Instr, atEntry bool) bool {
	frame := func(r uint8) bool { return r == isa.RegSP || r == isa.RegFP }
	op := in.Op
	switch {
	case op == isa.OpMOVR, op == isa.OpADDI:
		return !frame(in.Rd) && frame(in.Ra)
	case op >= isa.OpADD && op <= isa.OpCGE:
		return !frame(in.Rd) && (frame(in.Ra) || frame(in.Rb))
	case op == isa.OpPUSH:
		return in.Ra == isa.RegSP || (in.Ra == isa.RegFP && !atEntry)
	case op >= isa.OpST && op < isa.OpST+4:
		return frame(in.Ra)
	case op >= isa.OpSTR && op < isa.OpSTR+4:
		return frame(in.Rb)
	}
	return false
}

// isIndirectAccess reports whether in is a load/store through a general
// base register — the accesses isa.InstrFootprint marks Unbounded.
func isIndirectAccess(in isa.Instr) bool {
	op := in.Op
	if (op >= isa.OpLDR && op < isa.OpLDR+4) || (op >= isa.OpSTR && op < isa.OpSTR+4) {
		return in.Ra != isa.RegSP && in.Ra != isa.RegFP
	}
	return false
}

// resolveAccess bounds the byte range [base+imm, base+imm+sz) of one
// indirect access from the pre-instruction abstract state. Absolute ranges
// must fit the 32-bit address space without wrapping; frame-relative ranges
// are re-expressed against the current SP (or FP) so the footprint uses the
// same register-relative coordinates the VM evaluates at block entry.
func resolveAccess(st *state, in isa.Instr) (isa.Footprint, bool) {
	var f isa.Footprint
	av := vAdd(st.regs[in.Ra], cst(in.Imm))
	sz := int64(in.Sz)
	switch av.k {
	case kAbs:
		if av.lo >= 0 && av.hi <= math.MaxUint32-sz {
			f.AddAbsRange(uint32(av.lo), uint32(av.hi+sz))
			return f, true
		}
	case kFrame:
		if s, ok := st.regs[isa.RegSP].frameSingleton(); ok {
			lo, ok1 := subOv(av.lo, s)
			hi, ok2 := subOv(av.hi, s)
			if ok1 && ok2 {
				if hi2, ok3 := addOv(hi, sz); ok3 {
					f.AddSPRange(lo, hi2)
					return f, true
				}
			}
		}
		if s, ok := st.regs[isa.RegFP].frameSingleton(); ok {
			lo, ok1 := subOv(av.lo, s)
			hi, ok2 := subOv(av.hi, s)
			if ok1 && ok2 {
				if hi2, ok3 := addOv(hi, sz); ok3 {
					f.AddFPRange(lo, hi2)
					return f, true
				}
			}
		}
	}
	return isa.Footprint{}, false
}

// pred records the provenance of a boolean comparison result: the operand
// values captured at the compare, plus the frame-slot keys the operands
// were loaded from (when still valid), so a later conditional jump on the
// result can refine the slots along each edge.
type pred struct {
	op         isa.Op // OpCEQ..OpCGE
	lVal, rVal Val
	lKey, rKey int64
	lOK, rOK   bool
}

func predEq(a, b *pred) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// state is the abstract machine state at one program point: a value per
// register, a value per tracked frame slot (8-byte cells keyed by their
// offset from the frame base; a missing key is Top), per-register slot
// provenance, and per-register comparison predicates. bot marks an
// unreachable point.
type state struct {
	bot      bool
	regs     [isa.NumRegs]Val
	origin   [isa.NumRegs]int64 // frame-slot key the register was loaded from
	originOK [isa.NumRegs]bool
	preds    [isa.NumRegs]*pred
	slots    map[int64]Val
}

// unreachable is the one bottom state. States are never mutated once a
// transfer has returned them, so every unreachable point can share it.
var unreachable = &state{bot: true}

func entryState() *state {
	st := &state{}
	for i := range st.regs {
		st.regs[i] = top()
	}
	st.regs[isa.RegSP] = mk(kFrame, 0, 0)
	return st
}

func (st *state) clone() *state {
	ns := *st
	if st.slots != nil {
		ns.slots = make(map[int64]Val, len(st.slots))
		for k, v := range st.slots {
			ns.slots[k] = v
		}
	}
	return &ns
}

// Equal implements dataflow.Facts.
func (st *state) Equal(other dataflow.Facts) bool {
	o, ok := other.(*state)
	if !ok {
		return false
	}
	if st.bot || o.bot {
		return st.bot == o.bot
	}
	for i := range st.regs {
		if st.regs[i] != o.regs[i] {
			return false
		}
		if st.originOK[i] != o.originOK[i] {
			return false
		}
		if st.originOK[i] && st.origin[i] != o.origin[i] {
			return false
		}
		if !predEq(st.preds[i], o.preds[i]) {
			return false
		}
	}
	if len(st.slots) != len(o.slots) {
		return false
	}
	for k, v := range st.slots {
		if ov, ok := o.slots[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

func (st *state) setReg(r uint8, v Val) {
	st.regs[r] = v
	st.originOK[r] = false
	st.preds[r] = nil
}

func (st *state) slotVal(key int64) Val {
	if v, ok := st.slots[key]; ok {
		return v
	}
	return top()
}

func (st *state) setSlot(key int64, v Val) {
	if v.k == kTop {
		// A missing key already means Top; keeping the representation
		// canonical keeps state equality (the fixpoint test) honest.
		delete(st.slots, key)
		return
	}
	if st.slots == nil {
		st.slots = map[int64]Val{}
	}
	st.slots[key] = v
}

// clobberSlotKey invalidates everything derived from slot key: the slot
// fact itself, register provenance into it, and predicates over it.
func (st *state) clobberSlotKey(key int64) {
	delete(st.slots, key)
	for i := range st.origin {
		if st.originOK[i] && st.origin[i] == key {
			st.originOK[i] = false
		}
		if p := st.preds[i]; p != nil && ((p.lOK && p.lKey == key) || (p.rOK && p.rKey == key)) {
			st.preds[i] = nil
		}
	}
}

// clobberSlotRange invalidates every 8-byte cell overlapping the half-open
// byte range [lo, hi) of frame offsets.
func (st *state) clobberSlotRange(lo, hi int64) {
	for k := range st.slots {
		if k < hi && lo < k+8 {
			st.clobberSlotKey(k)
		}
	}
}

func (st *state) clobberAllSlots() {
	for k := range st.slots {
		st.clobberSlotKey(k)
	}
}

// clobberSlotsBelow drops cells starting below the frame offset limit —
// the callee-territory invalidation at calls.
func (st *state) clobberSlotsBelow(limit int64) {
	for k := range st.slots {
		if k < limit {
			st.clobberSlotKey(k)
		}
	}
}

func joinState(a, b *state) *state {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	ns := &state{}
	for i := range ns.regs {
		ns.regs[i] = joinVal(a.regs[i], b.regs[i])
		if a.originOK[i] && b.originOK[i] && a.origin[i] == b.origin[i] {
			ns.origin[i], ns.originOK[i] = a.origin[i], true
		}
		if predEq(a.preds[i], b.preds[i]) {
			ns.preds[i] = a.preds[i]
		}
	}
	for k, va := range a.slots {
		if vb, ok := b.slots[k]; ok {
			ns.setSlot(k, joinVal(va, vb))
		}
	}
	return ns
}

// widenState extrapolates old toward new, key-wise; new must already
// over-approximate old (the caller joins first).
func widenState(old, new *state) *state {
	if old.bot {
		return new
	}
	if new.bot {
		return old
	}
	ns := &state{}
	for i := range ns.regs {
		ns.regs[i] = widenVal(old.regs[i], new.regs[i])
		if old.originOK[i] && new.originOK[i] && old.origin[i] == new.origin[i] {
			ns.origin[i], ns.originOK[i] = old.origin[i], true
		}
		if predEq(old.preds[i], new.preds[i]) {
			ns.preds[i] = old.preds[i]
		}
	}
	for k, vo := range old.slots {
		if vn, ok := new.slots[k]; ok {
			ns.setSlot(k, widenVal(vo, vn))
		}
	}
	return ns
}

// escRange is a half-open byte range of entry-SP-relative frame offsets
// that escaped with a known extent (a watchpoint armed on part of the
// frame): cells overlapping it may be written by the kernel's undo
// machinery, so the rerun never records facts for them.
type escRange struct{ lo, hi int64 }

// fnAnalysis is the per-function EdgeAnalysis: the transfer function over
// the decoded instructions of one region, with branch refinement on the
// two edges of conditional jumps.
type fnAnalysis struct {
	dec       []isa.Instr
	g         *cfg.BinGraph
	opt       Options
	slotsOK   bool
	escAll    bool       // a frame address left through an unbounded channel
	escRanges []escRange // bounded escapes collected during pass 1
	poison    []escRange // cells distrusted during the rerun
}

// poisoned reports whether the 8-byte cell at key overlaps an escaped
// extent; poisoned cells are never tracked.
func (a *fnAnalysis) poisoned(key int64) bool {
	for _, r := range a.poison {
		if key < r.hi && r.lo < key+8 {
			return true
		}
	}
	return false
}

func (a *fnAnalysis) Bottom() dataflow.Facts   { return unreachable }
func (a *fnAnalysis) Entry(int) dataflow.Facts { return entryState() }
func (a *fnAnalysis) Join(x, y dataflow.Facts) dataflow.Facts {
	return joinState(x.(*state), y.(*state))
}

func (a *fnAnalysis) Widen(o, n dataflow.Facts) dataflow.Facts {
	os, ns := o.(*state), n.(*state)
	return widenState(os, joinState(os, ns))
}

func (a *fnAnalysis) Flow(n int, in dataflow.Facts) []dataflow.Facts {
	b := a.g.Blocks[n]
	st := in.(*state)
	last := b.PCs[len(b.PCs)-1]
	lin := a.dec[last]

	if lin.Op == isa.OpJZ || lin.Op == isa.OpJNZ {
		if !st.bot {
			st = st.clone()
			for _, pc := range b.PCs[:len(b.PCs)-1] {
				a.step(st, a.dec[pc])
			}
		}
		// Per-edge refinement, in BuildBinary's edge order: taken first,
		// fall-through second, skipping out-of-region targets.
		zeroTaken := lin.Op == isa.OpJZ
		next := last + uint32(lin.Len)
		outs := make([]dataflow.Facts, 0, len(b.Succs))
		for _, e := range []struct {
			target uint32
			zero   bool
		}{{lin.Addr, zeroTaken}, {next, !zeroTaken}} {
			if a.g.BlockAt(e.target) < 0 {
				continue
			}
			if st.bot {
				outs = append(outs, unreachable)
			} else {
				outs = append(outs, refineBranch(st, lin.Ra, e.zero))
			}
		}
		return outs
	}

	if !st.bot {
		st = st.clone()
		for _, pc := range b.PCs {
			a.step(st, a.dec[pc])
		}
	}
	outs := make([]dataflow.Facts, len(b.Succs))
	for i := range outs {
		outs[i] = st
	}
	return outs
}

// noteEscape flags a frame address leaving the function through a channel
// with no extent bound — anything may be written through it.
func (a *fnAnalysis) noteEscape(v Val) {
	if v.isFrameBased() {
		a.escAll = true
	}
}

// noteEscapeExtent flags a frame address escaping with a known byte extent
// (begin_atomic's watched range): only [addr, addr+size) becomes
// kernel-writable. When the address is not a tight frame interval or the
// size is unknown, it degrades to the unbounded escape.
func (a *fnAnalysis) noteEscapeExtent(addr, size Val) {
	if !addr.isFrameBased() {
		return
	}
	if addr.k == kFrame && size.k == kAbs && size.lo >= 0 {
		if hi, ok := addOv(addr.hi, size.hi); ok {
			a.escRanges = append(a.escRanges, escRange{addr.lo, hi})
			return
		}
	}
	a.escAll = true
}

// storeTo applies one store's effect on the slot facts: a tracked 8-byte
// frame-singleton write updates its cell; anything that may alias the
// frame clobbers the overlap (or everything, for untracked targets).
func (a *fnAnalysis) storeTo(st *state, target Val, sz int64, v Val) {
	switch target.k {
	case kFrame:
		if key, ok := target.frameSingleton(); ok && sz == 8 && a.slotsOK && !a.poisoned(key) {
			st.clobberSlotRange(key, key+sz)
			st.setSlot(key, v)
			return
		}
		hi, ok := addOv(target.hi, sz)
		if !ok {
			st.clobberAllSlots()
			return
		}
		st.clobberSlotRange(target.lo, hi)
	case kAbs:
		// Disjoint from the stack region (as a non-wrapping 32-bit range):
		// no frame cell can alias.
		if target.lo >= 0 && target.hi <= math.MaxUint32-sz &&
			(target.hi+sz <= int64(a.opt.StackLo) || target.lo >= int64(a.opt.StackHi)) {
			return
		}
		st.clobberAllSlots()
	default:
		st.clobberAllSlots()
	}
}

// step applies one instruction's transfer to st in place. Order mirrors
// vm.execRun: operand values are read before any destination is written.
func (a *fnAnalysis) step(st *state, in isa.Instr) {
	if st.bot {
		return
	}
	op := in.Op
	switch {
	case op == isa.OpNOP, op == isa.OpHLT, op == isa.OpRET,
		op == isa.OpJMP, op == isa.OpJZ, op == isa.OpJNZ, op == isa.OpSYS:
		if op == isa.OpSYS {
			// ABI: args in R0..R4, result in R0; the kernel may clobber
			// the argument registers but never touches tracked slots (its
			// undo writes target watched addresses, which require an
			// escaped frame address to point into a frame). The syscall
			// number fixes which arguments are addresses the kernel can
			// later write through:
			//   - begin_atomic arms a watchpoint on [R1, R1+R2), so a
			//     frame address there escapes with exactly that extent;
			//   - spawn forwards R1 into the new thread's R8 — an
			//     unbounded foreign-write channel;
			//   - lock/unlock key an address-indexed kernel mutex map and
			//     never dereference R0; every other syscall's arguments
			//     are ids, counts, or plain values.
			switch in.Imm {
			case isa.SysBeginAtomic:
				a.noteEscapeExtent(st.regs[1], st.regs[2])
			case isa.SysSpawn:
				a.noteEscape(st.regs[1])
			case isa.SysExit, isa.SysEndAtomic, isa.SysClearAR,
				isa.SysLock, isa.SysUnlock, isa.SysYield, isa.SysSleep,
				isa.SysPrint, isa.SysRand, isa.SysRecv, isa.SysSend,
				isa.SysNanos:
				// No dereferenced pointer arguments.
			default:
				for r := uint8(0); r <= 4; r++ {
					a.noteEscape(st.regs[r])
				}
			}
			for r := uint8(0); r <= 7; r++ {
				st.setReg(r, top())
			}
		}
	case op == isa.OpMOVQ, op == isa.OpMOVL:
		st.setReg(in.Rd, cst(in.Imm))
	case op == isa.OpMOVR:
		v := st.regs[in.Ra]
		o, ok := st.origin[in.Ra], st.originOK[in.Ra]
		p := st.preds[in.Ra]
		st.regs[in.Rd] = v
		st.origin[in.Rd], st.originOK[in.Rd] = o, ok
		st.preds[in.Rd] = p
	case op == isa.OpADDI:
		st.setReg(in.Rd, vAdd(st.regs[in.Ra], cst(in.Imm)))
	case op >= isa.OpCEQ && op <= isa.OpCGE:
		p := &pred{
			op:   op,
			lVal: st.regs[in.Ra], rVal: st.regs[in.Rb],
			lKey: st.origin[in.Ra], lOK: st.originOK[in.Ra],
			rKey: st.origin[in.Rb], rOK: st.originOK[in.Rb],
		}
		v := cmpVal(op, p.lVal, p.rVal)
		st.setReg(in.Rd, v)
		st.preds[in.Rd] = p
	case op >= isa.OpADD && op <= isa.OpSHR:
		st.setReg(in.Rd, aluVal(op, st.regs[in.Ra], st.regs[in.Rb]))
	case op >= isa.OpLD && op < isa.OpLD+4:
		st.setReg(in.Rd, top()) // global loads: contents untracked
	case op >= isa.OpST && op < isa.OpST+4:
		a.noteEscape(st.regs[in.Ra])
		a.storeTo(st, cst(int64(in.Addr)), int64(in.Sz), top())
	case op >= isa.OpLDR && op < isa.OpLDR+4:
		addr := vAdd(st.regs[in.Ra], cst(in.Imm))
		if key, ok := addr.frameSingleton(); ok && in.Sz == 8 && a.slotsOK && !a.poisoned(key) {
			v := st.slotVal(key)
			st.regs[in.Rd] = v
			st.origin[in.Rd], st.originOK[in.Rd] = key, true
			st.preds[in.Rd] = nil
		} else {
			st.setReg(in.Rd, top())
		}
	case op >= isa.OpSTR && op < isa.OpSTR+4:
		a.noteEscape(st.regs[in.Rb])
		addr := vAdd(st.regs[in.Ra], cst(in.Imm))
		a.storeTo(st, addr, int64(in.Sz), st.regs[in.Rb])
	case op == isa.OpPUSH:
		a.noteEscape(st.regs[in.Ra])
		sp := st.regs[isa.RegSP]
		v := st.regs[in.Ra]
		nsp := vAdd(sp, cst(-8))
		a.storeTo(st, nsp, 8, v)
		st.setReg(isa.RegSP, nsp)
	case op >= isa.OpPUSHM && op < isa.OpPUSHM+4:
		sp := st.regs[isa.RegSP]
		nsp := vAdd(sp, cst(-8))
		a.storeTo(st, nsp, 8, top())
		st.setReg(isa.RegSP, nsp)
	case op == isa.OpPOP:
		sp := st.regs[isa.RegSP]
		if key, ok := sp.frameSingleton(); ok && a.slotsOK && !a.poisoned(key) {
			v := st.slotVal(key)
			st.regs[in.Rd] = v
			st.origin[in.Rd], st.originOK[in.Rd] = key, true
			st.preds[in.Rd] = nil
		} else {
			st.setReg(in.Rd, top())
		}
		// Matches execRun's write order: POP SP ends at sp+8.
		st.setReg(isa.RegSP, vAdd(sp, cst(8)))
	case op == isa.OpCALL, op == isa.OpCALLM:
		// Arguments travel through R8+; a frame address there escapes to
		// the callee (the PUSH staging already flags it, this is the belt).
		for r := uint8(8); r <= 13; r++ {
			a.noteEscape(st.regs[r])
		}
		sp := st.regs[isa.RegSP]
		// Across call + matching RET: SP nets to its pre-call value, FP is
		// preserved by the prologue/epilogue convention, scratch registers
		// are clobbered. Absent a frame escape the callee holds no pointer
		// into this frame, so only cells below the caller's SP (callee
		// territory, including the pushed return PC) are invalidated.
		if key, ok := sp.frameSingleton(); ok {
			st.clobberSlotsBelow(key)
		} else {
			st.clobberAllSlots()
		}
		for r := uint8(0); r <= 13; r++ {
			st.setReg(r, top())
		}
	}
}

// refineBranch returns st refined along one side of a conditional jump on
// register r: the side where r == 0 (zero) or r != 0. Value-based pruning
// kills statically impossible edges; predicate provenance tightens the
// compared slots.
func refineBranch(st *state, r uint8, zero bool) *state {
	v := st.regs[r]
	if zero {
		if v.k == kAbs && (v.lo > 0 || v.hi < 0) {
			return unreachable
		}
	} else {
		if v.k == kAbs && v.lo == 0 && v.hi == 0 {
			return unreachable
		}
	}
	ns := st.clone()
	if v.k == kAbs {
		if zero {
			ns.regs[r] = cst(0)
		} else if v.lo == 0 {
			// Only the zero endpoint can be excluded from an interval.
			ns.regs[r] = mk(kAbs, 1, v.hi)
		}
	}
	p := st.preds[r]
	if p == nil {
		return ns
	}
	nl, nr, feasible := applyRel(p.op, !zero, p.lVal, p.rVal)
	if !feasible {
		return unreachable
	}
	ns.refineOperand(p.lKey, p.lOK, nl)
	ns.refineOperand(p.rKey, p.rOK, nr)
	return ns
}

// refineOperand writes a tightened operand value back to its source slot
// and to every register still holding that slot's value.
func (st *state) refineOperand(key int64, ok bool, v Val) {
	if !ok {
		return
	}
	st.setSlot(key, v)
	for i := range st.regs {
		if st.originOK[i] && st.origin[i] == key {
			st.regs[i] = v
		}
	}
}

// applyRel refines both operands of a comparison known to have outcome
// truth. Operands are only comparable when they share a base kind.
func applyRel(op isa.Op, truth bool, l, r Val) (nl, nr Val, feasible bool) {
	nl, nr = l, r
	if !(l.k == r.k && (l.k == kAbs || l.k == kFrame)) {
		return nl, nr, true
	}
	// Canonicalize to one of {eq, lt, le, gt, ge} or no information.
	type rel uint8
	const (
		rNone rel = iota
		rEQ
		rLT
		rLE
		rGT
		rGE
	)
	var rl rel
	switch op {
	case isa.OpCEQ:
		if truth {
			rl = rEQ
		}
	case isa.OpCNE:
		if !truth {
			rl = rEQ
		}
	case isa.OpCLT:
		rl = rLT
		if !truth {
			rl = rGE
		}
	case isa.OpCLE:
		rl = rLE
		if !truth {
			rl = rGT
		}
	case isa.OpCGT:
		rl = rGT
		if !truth {
			rl = rLE
		}
	case isa.OpCGE:
		rl = rGE
		if !truth {
			rl = rLT
		}
	}
	clampHi := func(v Val, bound int64) (Val, bool) {
		if v.lo > bound {
			return v, false
		}
		return mk(v.k, v.lo, minI(v.hi, bound)), true
	}
	clampLo := func(v Val, bound int64) (Val, bool) {
		if v.hi < bound {
			return v, false
		}
		return mk(v.k, maxI(v.lo, bound), v.hi), true
	}
	var ok1, ok2 bool
	switch rl {
	case rEQ:
		lo, hi := maxI(l.lo, r.lo), minI(l.hi, r.hi)
		if lo > hi {
			return nl, nr, false
		}
		return mk(l.k, lo, hi), mk(l.k, lo, hi), true
	case rLT:
		if r.hi == math.MinInt64 || l.lo == math.MaxInt64 {
			return nl, nr, false
		}
		nl, ok1 = clampHi(l, r.hi-1)
		nr, ok2 = clampLo(r, l.lo+1)
	case rLE:
		nl, ok1 = clampHi(l, r.hi)
		nr, ok2 = clampLo(r, l.lo)
	case rGT:
		if l.hi == math.MinInt64 || r.lo == math.MaxInt64 {
			return nl, nr, false
		}
		nl, ok1 = clampLo(l, r.lo+1)
		nr, ok2 = clampHi(r, l.hi-1)
	case rGE:
		nl, ok1 = clampLo(l, r.lo)
		nr, ok2 = clampHi(r, l.hi)
	default:
		return nl, nr, true
	}
	return nl, nr, ok1 && ok2
}
