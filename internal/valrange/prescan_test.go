package valrange

import (
	"testing"

	"kivati/internal/isa"
)

// leakImage builds two functions. The first never touches memory through a
// general register, so its facts are never read; when leak is set it copies
// SP into R1 and spawns a thread with it, an unbounded frame escape. The
// second proves an indirect load only through a tracked frame slot, which
// that escape disables image-wide.
func leakImage(t *testing.T, leak bool) (code []byte, entries []uint32, load uint32) {
	t.Helper()
	e := isa.NewEncoder()
	entries = append(entries, e.PC())
	if leak {
		e.MovReg(1, isa.RegSP)
	} else {
		e.MovImm(1, 0)
	}
	e.Sys(isa.SysSpawn)
	e.Ret()
	entries = append(entries, e.PC())
	e.AddImm(isa.RegSP, isa.RegSP, -8)
	e.MovImm(2, 3)
	e.StoreReg(isa.RegSP, 0, 2, 8)
	e.LoadReg(3, isa.RegSP, 0, 8)
	e.MovImm(4, 0x1000)
	e.ALU(isa.OpADD, 5, 4, 3)
	load = e.PC()
	e.LoadReg(6, 5, 0, 8)
	e.AddImm(isa.RegSP, isa.RegSP, 8)
	e.Ret()
	code, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return code, entries, load
}

// TestPreScanKeepsEscapeVerdict: a region with no indirect access is
// skipped only when no instruction in it can leak a frame address. A leak
// there must still turn slot tracking off for the rest of the image,
// exactly as the every-region reference does.
func TestPreScanKeepsEscapeVerdict(t *testing.T) {
	opt := Options{StackLo: propStackLo, StackHi: propStackHi}
	for _, leak := range []bool{false, true} {
		code, entries, load := leakImage(t, leak)
		decoded, _, err := isa.DecodeProgram(code)
		if err != nil {
			t.Fatal(err)
		}
		got := AnalyzeDecoded(decoded, entries, opt)
		ref := analyze(decoded, entries, opt, true)
		f, ok := got.AccessFootprint(load)
		rf, rok := ref.AccessFootprint(load)
		if ok != rok || f != rf || got.Resolved() != ref.Resolved() {
			t.Fatalf("leak=%v: selective %v %+v, reference %v %+v", leak, ok, f, rok, rf)
		}
		if ok == leak {
			t.Fatalf("leak=%v: load proved=%v, want %v", leak, ok, !leak)
		}
	}
}

func TestMayLeakFrame(t *testing.T) {
	sp, fp := uint8(isa.RegSP), uint8(isa.RegFP)
	cases := []struct {
		in      isa.Instr
		atEntry bool
		want    bool
	}{
		{isa.Instr{Op: isa.OpMOVR, Rd: 1, Ra: sp}, false, true},
		{isa.Instr{Op: isa.OpMOVR, Rd: fp, Ra: sp}, false, false},
		{isa.Instr{Op: isa.OpMOVR, Rd: sp, Ra: fp}, false, false},
		{isa.Instr{Op: isa.OpADDI, Rd: 2, Ra: fp, Imm: -16}, false, true},
		{isa.Instr{Op: isa.OpADDI, Rd: sp, Ra: sp, Imm: -16}, false, false},
		{isa.Instr{Op: isa.OpADD, Rd: 3, Ra: 1, Rb: sp}, false, true},
		{isa.Instr{Op: isa.OpCLT, Rd: 3, Ra: fp, Rb: 1}, false, true},
		{isa.Instr{Op: isa.OpADD, Rd: 3, Ra: 1, Rb: 2}, false, false},
		{isa.Instr{Op: isa.OpPUSH, Ra: fp}, true, false},
		{isa.Instr{Op: isa.OpPUSH, Ra: fp}, false, true},
		{isa.Instr{Op: isa.OpPUSH, Ra: sp}, true, true},
		{isa.Instr{Op: isa.OpPUSH, Ra: 4}, false, false},
		{isa.Instr{Op: isa.OpST + 3, Ra: sp}, false, true},
		{isa.Instr{Op: isa.OpST + 3, Ra: 1}, false, false},
		{isa.Instr{Op: isa.OpSTR + 3, Ra: sp, Rb: fp}, false, true},
		{isa.Instr{Op: isa.OpSTR + 3, Ra: fp, Rb: 1}, false, false},
		{isa.Instr{Op: isa.OpLDR + 3, Rd: 1, Ra: fp}, false, false},
	}
	for _, c := range cases {
		if got := mayLeakFrame(c.in, c.atEntry); got != c.want {
			t.Errorf("mayLeakFrame(%+v, entry=%v) = %v, want %v", c.in, c.atEntry, got, c.want)
		}
	}
}
