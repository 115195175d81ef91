// Static basic-block address footprints (the fast path's disjointness
// oracle). For every instruction-start PC the table holds the footprint of
// the straight-line run the VM's superstep dispatcher may retire starting
// there — the exact suffix the per-PC blockLen table measures: nothing for
// kernel boundaries (the fast path never enters them), the instruction's
// own accesses for control flow (the block's last fast instruction), and
// the instruction's accesses unioned with the re-based suffix footprint
// otherwise. The reverse walk mirrors vm.buildOps so the two tables
// describe the same windows.
//
// Two entry points share the walk. Footprints is the raw-image path: only
// isa.InstrFootprint's register-relative tracking, so every access through
// a general base register escapes to Unbounded. FootprintsAnalyzed is the
// compiler's path: it first runs the valrange interval pass over the
// image's function regions and substitutes proved bounds for indirect
// accesses, so ring indices, masked offsets and loop-bounded array sweeps
// keep finite footprints and stay on the unchecked fast path.
package compile

import (
	"kivati/internal/isa"
	"kivati/internal/valrange"
)

// accessResolver supplies bounded footprints for individual accesses the
// instruction-local tracking cannot bound (satisfied by *valrange.Analysis).
type accessResolver interface {
	AccessFootprint(pc uint32) (isa.Footprint, bool)
}

// Footprints computes the per-PC suffix footprint table for a binary image.
// The result is indexed by PC; entries at non-start offsets are empty.
func Footprints(code []byte) ([]isa.Footprint, error) {
	decoded, starts, err := isa.DecodeProgram(code)
	if err != nil {
		return nil, err
	}
	return suffixFootprints(decoded, starts, nil, nil), nil
}

// FootprintsAnalyzed computes the table with value-range analysis over the
// given function entry PCs: indirect accesses whose address intervals the
// pass proves get tight bounds instead of Unbounded.
func FootprintsAnalyzed(code []byte, entries []uint32) ([]isa.Footprint, error) {
	decoded, starts, err := isa.DecodeProgram(code)
	if err != nil {
		return nil, err
	}
	return suffixFootprints(decoded, starts, valrangeAnalysis(decoded, entries), nil), nil
}

// valrangeAnalysis runs the interval pass with layout-derived options.
func valrangeAnalysis(decoded []isa.Instr, entries []uint32) *valrange.Analysis {
	return valrange.AnalyzeDecoded(decoded, entries, valrangeOptions())
}

// valrangeOptions derives the analysis options from the memory layout: the
// thread-stack region is what absolute stores must provably miss for frame
// slot facts to survive them.
func valrangeOptions() valrange.Options {
	return valrange.Options{
		StackLo: StackBase,
		StackHi: StackBase + MaxThreads*StackSize,
	}
}

// suffixFootprints runs the reverse walk over pre-decoded instructions.
// rv, when non-nil, is consulted for accesses whose instruction-local
// footprint is Unbounded. cause, when non-nil, receives for each PC whose
// suffix footprint is Unbounded the PC of the instruction that caused the
// escape (the deepest unbounded access or untrackable SP/FP overwrite in
// the window); only FootprintReport reads it.
func suffixFootprints(decoded []isa.Instr, starts []uint32, rv accessResolver, cause map[uint32]uint32) []isa.Footprint {
	fps := make([]isa.Footprint, len(decoded))
	setCause := func(pc, c uint32) {
		if cause != nil {
			cause[pc] = c
		}
	}
	own := func(pc uint32, in isa.Instr) isa.Footprint {
		f := isa.InstrFootprint(in)
		if f.Unbounded && rv != nil {
			if rf, ok := rv.AccessFootprint(pc); ok {
				return rf
			}
		}
		return f
	}
	for i := len(starts) - 1; i >= 0; i-- {
		pc := starts[i]
		in := decoded[pc]
		switch {
		case in.Op.IsKernelBoundary():
			// blockLen is 0: the fast path never executes this PC.
		case in.Op.IsControlFlow():
			fps[pc] = own(pc, in)
			if fps[pc].Unbounded {
				setCause(pc, pc)
			}
		default:
			f := own(pc, in)
			ownUnbounded := f.Unbounded
			if next := pc + uint32(in.Len); int(next) < len(decoded) {
				f = f.UnionWith(fps[next].Rebase(in))
				if f.Unbounded && !ownUnbounded {
					if c, ok := cause[next]; ok {
						setCause(pc, c)
					} else {
						// The escape came from Rebase (an untrackable
						// SP/FP overwrite at this instruction).
						setCause(pc, pc)
					}
				}
			}
			if ownUnbounded {
				setCause(pc, pc)
			}
			fps[pc] = f
		}
	}
	return fps
}
