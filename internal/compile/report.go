// Footprint diagnostics for kivati-annotate -footprints: a per-basic-block
// view of the suffix footprint table with escape attribution, so a
// residency regression can be traced to the instruction that unbounded its
// block without running a benchmark.
package compile

import "kivati/internal/isa"

// BlockFootprint is one diagnostic row: the footprint of the straight-line
// window entered at a basic-block leader, and — when it escaped to
// Unbounded — the instruction that caused the escape.
type BlockFootprint struct {
	Fn     string // containing function
	PC     uint32 // block leader
	Instrs int    // instructions in the basic block
	FP     isa.Footprint
	// CausePC/CauseOp identify the escape-causing instruction (the deepest
	// unbounded access or untrackable SP/FP overwrite in the window) when
	// FP.Unbounded.
	CausePC  uint32
	CauseOp  isa.Instr
	HasCause bool
}

// FootprintReport recomputes the analyzed footprint table for bin and
// returns one row per basic block of each compiled function, in PC order.
func FootprintReport(bin *Binary) ([]BlockFootprint, error) {
	decoded, starts, err := isa.DecodeProgram(bin.Code)
	if err != nil {
		return nil, err
	}
	cause := map[uint32]uint32{}
	fps := suffixFootprints(decoded, starts, valrangeAnalysis(decoded, bin.FuncEntries), cause)

	var rows []BlockFootprint
	leaders := blockLeaders(decoded, starts)
	for _, pc := range starts {
		if !leaders[pc] {
			continue
		}
		fn := bin.FuncAt(pc)
		if fn == "" {
			continue // exit stub
		}
		row := BlockFootprint{Fn: fn, PC: pc, FP: fps[pc]}
		end := pc
		for int(end) < len(decoded) && decoded[end].Len > 0 {
			in := decoded[end]
			row.Instrs++
			end += uint32(in.Len)
			if in.Op.IsControlFlow() || in.Op.IsKernelBoundary() || leaders[end] {
				break
			}
		}
		if c, ok := cause[pc]; ok {
			row.CausePC, row.CauseOp, row.HasCause = c, decoded[c], true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// blockLeaders marks basic-block leader PCs across the whole image: every
// jump target, every instruction after a control transfer or kernel
// boundary, and the image start.
func blockLeaders(decoded []isa.Instr, starts []uint32) map[uint32]bool {
	leaders := map[uint32]bool{}
	if len(starts) > 0 {
		leaders[starts[0]] = true
	}
	for _, pc := range starts {
		in := decoded[pc]
		next := pc + uint32(in.Len)
		switch in.Op {
		case isa.OpJMP, isa.OpJZ, isa.OpJNZ:
			if int(in.Addr) < len(decoded) && decoded[in.Addr].Len > 0 {
				leaders[in.Addr] = true
			}
			leaders[next] = true
		case isa.OpCALL, isa.OpCALLM, isa.OpRET, isa.OpHLT, isa.OpSYS:
			leaders[next] = true
		}
	}
	return leaders
}
