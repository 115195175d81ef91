package isa

// Static address footprints for the VM's watchpoint-aware fast path.
//
// A Footprint conservatively over-approximates the set of data-memory
// addresses a straight-line instruction run may access. Absolute accesses
// (globals) accumulate into one address interval. Stack accesses are
// expressed as offset intervals relative to the SP or FP value *at entry to
// the run*, so the VM can evaluate them against a thread's live registers at
// a block edge; the tracking survives the compiler's stack idioms
// (PUSH/POP/CALL/RET, `ADDI SP, SP, imm` frame adjustment, and the
// `MOVR FP, SP` / `MOVR SP, FP` prologue/epilogue re-basing). Accesses
// through any other base register — pointers, array indexing — escape to
// Unbounded, as does any run in which SP or FP is overwritten with an
// untrackable value.
//
// The soundness contract consumed by the fast path: every address an
// execution of the run touches before its first control-transfer out of
// straight-line code is contained in the footprint (evaluated at the run's
// entry register state), or the footprint is Unbounded.

// Footprint summarizes the memory addresses a straight-line run may touch.
// All three intervals are half-open and empty when Lo == Hi.
type Footprint struct {
	AbsLo, AbsHi uint32 // absolute addresses (globals, PUSHM/CALLM operands)
	SPLo, SPHi   int64  // offsets from the entry stack pointer
	FPLo, FPHi   int64  // offsets from the entry frame pointer
	// Unbounded marks a run with an access the analysis cannot bound: a
	// load/store through a general register base, or a stack access after
	// SP/FP was overwritten with an untracked value.
	Unbounded bool
}

// Empty reports whether the footprint provably touches no memory.
func (f *Footprint) Empty() bool {
	return !f.Unbounded && f.AbsHi == f.AbsLo && f.SPHi == f.SPLo && f.FPHi == f.FPLo
}

func (f *Footprint) addAbs(addr uint32, sz uint8) {
	end := addr + uint32(sz)
	if f.AbsHi == f.AbsLo {
		f.AbsLo, f.AbsHi = addr, end
		return
	}
	if addr < f.AbsLo {
		f.AbsLo = addr
	}
	if end > f.AbsHi {
		f.AbsHi = end
	}
}

func (f *Footprint) addSP(lo, hi int64) {
	if hi <= lo {
		return
	}
	if f.SPHi == f.SPLo {
		f.SPLo, f.SPHi = lo, hi
		return
	}
	if lo < f.SPLo {
		f.SPLo = lo
	}
	if hi > f.SPHi {
		f.SPHi = hi
	}
}

func (f *Footprint) addFP(lo, hi int64) {
	if hi <= lo {
		return
	}
	if f.FPHi == f.FPLo {
		f.FPLo, f.FPHi = lo, hi
		return
	}
	if lo < f.FPLo {
		f.FPLo = lo
	}
	if hi > f.FPHi {
		f.FPHi = hi
	}
}

// AddAbsRange widens the absolute interval to include the half-open byte
// range [lo, hi). Exported for analyses (internal/valrange) that prove
// bounds for accesses InstrFootprint alone cannot track.
func (f *Footprint) AddAbsRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	if f.AbsHi == f.AbsLo {
		f.AbsLo, f.AbsHi = lo, hi
		return
	}
	if lo < f.AbsLo {
		f.AbsLo = lo
	}
	if hi > f.AbsHi {
		f.AbsHi = hi
	}
}

// AddSPRange widens the entry-SP-relative interval to include [lo, hi).
func (f *Footprint) AddSPRange(lo, hi int64) { f.addSP(lo, hi) }

// AddFPRange widens the entry-FP-relative interval to include [lo, hi).
func (f *Footprint) AddFPRange(lo, hi int64) { f.addFP(lo, hi) }

// InstrFootprint returns the footprint of a single instruction's own memory
// accesses, relative to the register state just before it executes. It
// mirrors the access set the legacy interpreter records for the post-commit
// watchpoint check (vm.step): the instruction-fetch does not count.
func InstrFootprint(in Instr) Footprint {
	var f Footprint
	op := in.Op
	switch {
	case op >= OpLD && op < OpLD+4, op >= OpST && op < OpST+4:
		f.addAbs(in.Addr, in.Sz)
	case op >= OpLDR && op < OpLDR+4, op >= OpSTR && op < OpSTR+4:
		switch in.Ra {
		case RegSP:
			f.addSP(in.Imm, in.Imm+int64(in.Sz))
		case RegFP:
			f.addFP(in.Imm, in.Imm+int64(in.Sz))
		default:
			f.Unbounded = true
		}
	case op == OpPUSH, op == OpCALL:
		f.addSP(-8, 0)
	case op == OpPOP, op == OpRET:
		f.addSP(0, 8)
	case op >= OpPUSHM && op < OpPUSHM+4:
		f.addAbs(in.Addr, in.Sz)
		f.addSP(-8, 0)
	case op == OpCALLM:
		f.addAbs(in.Addr, 8) // the §3.3 indirect-call target read
		f.addSP(-8, 0)
	}
	return f
}

// regEffect expresses the post-execution value of register reg (RegSP or
// RegFP) in terms of the pre-execution registers: post = pre[src] + delta.
// ok is false when the instruction overwrites reg with a value the analysis
// does not track.
func regEffect(in Instr, reg uint8) (src uint8, delta int64, ok bool) {
	op := in.Op
	if reg == RegSP {
		// Implicit hardware SP updates.
		switch {
		case op == OpPUSH, op == OpCALL, op == OpCALLM,
			op >= OpPUSHM && op < OpPUSHM+4:
			return RegSP, -8, true
		case op == OpRET:
			return RegSP, 8, true
		case op == OpPOP:
			if in.Rd == RegSP {
				return 0, 0, false // POP SP: final value comes from memory
			}
			return RegSP, 8, true
		}
	}
	switch {
	case op == OpMOVR && in.Rd == reg:
		if in.Ra == RegSP || in.Ra == RegFP {
			return in.Ra, 0, true // prologue/epilogue re-basing
		}
		return 0, 0, false
	case op == OpADDI && in.Rd == reg:
		if in.Ra == RegSP || in.Ra == RegFP {
			return in.Ra, in.Imm, true // frame adjustment
		}
		return 0, 0, false
	case writesReg(in, reg):
		return 0, 0, false
	}
	return reg, 0, true
}

// writesReg reports whether in writes register reg through an explicit
// destination field (MOVR/ADDI destinations are classified by regEffect
// before this is consulted).
func writesReg(in Instr, reg uint8) bool {
	op := in.Op
	switch {
	case op == OpMOVQ, op == OpMOVL,
		op >= OpADD && op <= OpCGE,
		op >= OpLD && op < OpLD+4,
		op >= OpLDR && op < OpLDR+4,
		op == OpPOP:
		return in.Rd == reg
	}
	return false
}

// KeepsFrame reports whether in leaves both SP and FP as they were: it
// neither moves SP implicitly (PUSH, POP, PUSHM, CALL, CALLM, RET) nor
// writes either register with a new value. A footprint evaluated before
// such an instruction holds after it unchanged.
func (in Instr) KeepsFrame() bool {
	sp, dsp, okSP := regEffect(in, RegSP)
	fp, dfp, okFP := regEffect(in, RegFP)
	return okSP && okFP && sp == RegSP && dsp == 0 && fp == RegFP && dfp == 0
}

// Rebase re-expresses a footprint valid after instruction in (a suffix run's
// footprint) relative to the register state before in, so a reverse walk can
// union it with in's own accesses. Stack intervals shift by the
// instruction's SP/FP delta; the MOVR SP,FP / MOVR FP,SP re-basings move an
// interval between the SP and FP components; an untrackable overwrite of a
// register with a non-empty interval escapes to Unbounded.
func (f Footprint) Rebase(in Instr) Footprint {
	out := Footprint{AbsLo: f.AbsLo, AbsHi: f.AbsHi, Unbounded: f.Unbounded}
	move := func(lo, hi int64, reg uint8) {
		if hi <= lo {
			return
		}
		src, d, ok := regEffect(in, reg)
		if !ok {
			out.Unbounded = true
			return
		}
		if src == RegSP {
			out.addSP(lo+d, hi+d)
		} else {
			out.addFP(lo+d, hi+d)
		}
	}
	move(f.SPLo, f.SPHi, RegSP)
	move(f.FPLo, f.FPHi, RegFP)
	return out
}

// UnionWith merges g into f (interval hulls; Unbounded absorbs).
func (f Footprint) UnionWith(g Footprint) Footprint {
	f.Unbounded = f.Unbounded || g.Unbounded
	if g.AbsHi > g.AbsLo {
		if f.AbsHi == f.AbsLo {
			f.AbsLo, f.AbsHi = g.AbsLo, g.AbsHi
		} else {
			if g.AbsLo < f.AbsLo {
				f.AbsLo = g.AbsLo
			}
			if g.AbsHi > f.AbsHi {
				f.AbsHi = g.AbsHi
			}
		}
	}
	f.addSP(g.SPLo, g.SPHi)
	f.addFP(g.FPLo, g.FPHi)
	return f
}

// DecodeProgram decodes a whole binary image: decoded is indexed by PC
// (entries at non-start offsets have Len == 0) and starts lists the
// instruction-start PCs in ascending order.
func DecodeProgram(code []byte) (decoded []Instr, starts []uint32, err error) {
	decoded = make([]Instr, len(code))
	for pc := uint32(0); int(pc) < len(code); {
		in, err := Decode(code, pc)
		if err != nil {
			return nil, nil, err
		}
		decoded[pc] = in
		starts = append(starts, pc)
		pc += uint32(in.Len)
	}
	return decoded, starts, nil
}
