package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustFinish(t *testing.T, e *Encoder) []byte {
	t.Helper()
	code, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return code
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.MovImm(1, 42)
	e.MovImm(2, 1<<40) // forces MOVQ
	e.MovReg(3, 1)
	e.ALU(OpADD, 4, 1, 2)
	e.AddImm(5, 4, -7)
	e.Load(6, 0x1000, 8)
	e.Store(0x1008, 6, 4)
	e.LoadReg(7, RegFP, -16, 8)
	e.StoreReg(RegFP, -24, 7, 8)
	e.Push(1)
	e.Pop(2)
	e.PushMem(0x1000, 8)
	e.Label("next")
	e.Jmp("next")
	e.Jz(1, "next")
	e.Jnz(1, "next")
	e.Call("next")
	e.CallMem(0x2000)
	e.Ret()
	e.Sys(SysBeginAtomic)
	e.Hlt()
	code := mustFinish(t, e)

	want := []struct {
		op  Op
		str string
	}{
		{OpMOVL, "MOVL r1, 42"},
		{OpMOVQ, "MOVQ r2, 1099511627776"},
		{OpMOVR, "MOVR r3, r1"},
		{OpADD, "ADD r4, r1, r2"},
		{OpADDI, "ADDI r5, r4, -7"},
		{OpLD + 3, "LD8 r6, [0x1000]"},
		{OpST + 2, "ST4 [0x1008], r6"},
		{OpLDR + 3, "LDR8 r7, [r15-16]"},
		{OpSTR + 3, "STR8 [r15-24], r7"},
		{OpPUSH, "PUSH r1"},
		{OpPOP, "POP r2"},
		{OpPUSHM + 3, "PUSHM8 [0x1000]"},
		{OpJMP, ""},
		{OpJZ, ""},
		{OpJNZ, ""},
		{OpCALL, ""},
		{OpCALLM, "CALLM [0x2000]"},
		{OpRET, "RET"},
		{OpSYS, "SYS begin_atomic"},
		{OpHLT, "HLT"},
	}
	pc := uint32(0)
	for i, w := range want {
		in, err := Decode(code, pc)
		if err != nil {
			t.Fatalf("Decode at instr %d (pc %#x): %v", i, pc, err)
		}
		if in.Op != w.op {
			t.Errorf("instr %d: got op %v, want %v", i, in.Op, w.op)
		}
		if w.str != "" && in.String() != w.str {
			t.Errorf("instr %d: got %q, want %q", i, in.String(), w.str)
		}
		pc += uint32(in.Len)
	}
	if int(pc) != len(code) {
		t.Errorf("decoded %d bytes, code has %d", pc, len(code))
	}
}

func TestVariableLengths(t *testing.T) {
	// The ISA must be genuinely variable length for the undo engine's
	// boundary table to be necessary.
	e := NewEncoder()
	e.Hlt()               // 1 byte
	e.Push(1)             // 2 bytes
	e.MovReg(1, 2)        // 3 bytes
	e.ALU(OpADD, 1, 2, 3) // 4 bytes
	e.PushMem(0, 8)       // 5 bytes
	e.Load(1, 0, 8)       // 6 bytes
	e.AddImm(1, 2, 3)     // 7 bytes
	e.MovImm(1, 1<<40)    // 10 bytes
	code := mustFinish(t, e)
	wantLens := []uint8{1, 2, 3, 4, 5, 6, 7, 10}
	pc := uint32(0)
	seen := map[uint8]bool{}
	for i, w := range wantLens {
		in, err := Decode(code, pc)
		if err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		if in.Len != w {
			t.Errorf("instr %d: length %d, want %d", i, in.Len, w)
		}
		seen[in.Len] = true
		pc += uint32(in.Len)
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct instruction lengths; ISA not variable-length enough", len(seen))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0xff}, 0); err == nil {
		t.Error("unknown opcode: want error")
	}
	if _, err := Decode([]byte{byte(OpMOVQ), 1, 2}, 0); err == nil {
		t.Error("truncated MOVQ: want error")
	}
	if _, err := Decode(nil, 0); err == nil {
		t.Error("empty code: want error")
	}
	if _, err := Decode([]byte{byte(OpNOP)}, 5); err == nil {
		t.Error("pc out of bounds: want error")
	}
	// Register operands must name R0..R15: the analyses and the VM index
	// 16-entry register files with them.
	for _, c := range []struct {
		name string
		code []byte
	}{
		{"MOVQ rd", []byte{byte(OpMOVQ), 200, 7, 0, 0, 0, 0, 0, 0, 0}},
		{"MOVL rd", []byte{byte(OpMOVL), NumRegs, 7, 0, 0, 0}},
		{"MOVR ra", []byte{byte(OpMOVR), 1, NumRegs}},
		{"ADD rb", []byte{byte(OpADD), 1, 2, 0xff}},
		{"ADDI rd", []byte{byte(OpADDI), 16, 2, 0, 0, 0, 0}},
		{"LD rd", []byte{byte(OpLD + 3), 16, 0, 0x10, 0, 0}},
		{"ST rs", []byte{byte(OpST + 3), 16, 0, 0x10, 0, 0}},
		{"LDR rb", []byte{byte(OpLDR + 3), 1, 99, 0, 0, 0, 0}},
		{"STR rs", []byte{byte(OpSTR + 3), 14, 17, 0, 0, 0, 0}},
		{"PUSH", []byte{byte(OpPUSH), 16}},
		{"POP", []byte{byte(OpPOP), 255}},
		{"JZ", []byte{byte(OpJZ), 16, 0, 0, 0, 0}},
	} {
		code := append([]byte{byte(OpNOP)}, c.code...)
		_, err := Decode(code, 1)
		if err == nil {
			t.Errorf("%s: out-of-range register decoded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), "pc 0x1") {
			t.Errorf("%s: error %q does not name the pc", c.name, err)
		}
	}
	if _, err := Decode([]byte{byte(OpMOVR), NumRegs - 1, 0}, 0); err != nil {
		t.Errorf("MOVR R15, R0: %v", err)
	}
}

func TestWidthOp(t *testing.T) {
	for _, base := range []Op{OpLD, OpST, OpLDR, OpSTR, OpPUSHM} {
		for _, sz := range []int{1, 2, 4, 8} {
			op, err := WidthOp(base, sz)
			if err != nil {
				t.Fatalf("WidthOp(%v, %d): %v", base, sz, err)
			}
			if got := 1 << (op & 3); got != sz {
				t.Errorf("WidthOp(%v, %d) = %v which encodes width %d", base, sz, op, got)
			}
		}
		if _, err := WidthOp(base, 3); err == nil {
			t.Errorf("WidthOp(%v, 3): want error", base)
		}
	}
	if _, err := WidthOp(OpADD, 4); err == nil {
		t.Error("WidthOp(OpADD, 4): want error")
	}
}

func TestAccessesMemory(t *testing.T) {
	yes := []Op{OpLD, OpLD + 3, OpST, OpST + 3, OpLDR + 2, OpSTR + 1, OpPUSH, OpPOP, OpPUSHM, OpCALL, OpCALLM, OpRET}
	no := []Op{OpNOP, OpHLT, OpMOVQ, OpMOVL, OpMOVR, OpADD, OpCGE, OpADDI, OpJMP, OpJZ, OpJNZ, OpSYS}
	for _, op := range yes {
		if !AccessesMemory(op) {
			t.Errorf("AccessesMemory(%v) = false, want true", op)
		}
	}
	for _, op := range no {
		if AccessesMemory(op) {
			t.Errorf("AccessesMemory(%v) = true, want false", op)
		}
	}
}

func TestPreprocessBoundaryTable(t *testing.T) {
	e := NewEncoder()
	e.Label("f")
	e.MovImm(1, 5) // no access
	ld := e.PC()
	e.Load(2, 0x1000, 8) // access
	afterLD := e.PC()
	e.ALU(OpADD, 2, 2, 1)
	st := e.PC()
	e.Store(0x1000, 2, 8) // access
	afterST := e.PC()
	e.Ret()
	code := mustFinish(t, e)
	fpc, _ := e.LabelPC("f")

	bt, err := Preprocess(code, []uint32{fpc})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if got, ok := bt.PrevAccess(afterLD); !ok || got != ld {
		t.Errorf("PrevAccess(afterLD) = %#x,%v; want %#x,true", got, ok, ld)
	}
	if got, ok := bt.PrevAccess(afterST); !ok || got != st {
		t.Errorf("PrevAccess(afterST) = %#x,%v; want %#x,true", got, ok, st)
	}
	// The ALU instruction is not memory-accessing: its next-PC must be absent.
	if _, ok := bt.PrevAccess(st); ok {
		t.Error("PrevAccess for non-access instruction should be absent")
	}
	if !bt.IsFuncEntry(fpc) {
		t.Error("IsFuncEntry(f) = false")
	}
	if bt.IsFuncEntry(fpc + 1) {
		t.Error("IsFuncEntry(f+1) = true")
	}
	// RET is memory-accessing (reads return address).
	if bt.NumAccessInstrs() != 3 {
		t.Errorf("NumAccessInstrs = %d, want 3 (LD, ST, RET)", bt.NumAccessInstrs())
	}
}

func TestPreprocessBadCode(t *testing.T) {
	if _, err := Preprocess([]byte{0xff, 0xff}, nil); err == nil {
		t.Error("Preprocess of garbage: want error")
	}
}

// TestDecodeNeverPanics is a property test: Decode must return an error, not
// panic, on arbitrary byte streams at arbitrary offsets.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(code []byte, pc uint16) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked: %v", r)
			}
		}()
		in, err := Decode(code, uint32(pc))
		if err == nil && int(pc)+int(in.Len) > len(code) {
			t.Errorf("Decode returned instruction overrunning code: pc=%d len=%d code=%d", pc, in.Len, len(code))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEncoderDecodeProperty: every instruction the Encoder can emit decodes
// back to consistent fields.
func TestEncoderImmediateRoundTrip(t *testing.T) {
	f := func(rd uint8, v int64) bool {
		rd %= NumRegs
		e := NewEncoder()
		e.MovImm(rd, v)
		code, err := e.Finish()
		if err != nil {
			return false
		}
		in, err := Decode(code, 0)
		if err != nil {
			return false
		}
		return in.Rd == rd && in.Imm == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassemble(t *testing.T) {
	e := NewEncoder()
	e.MovImm(0, 1)
	e.Label("l")
	e.Sys(SysExit)
	e.Jmp("l")
	code := mustFinish(t, e)
	lines, err := Disassemble(code)
	if err != nil {
		t.Fatalf("Disassemble: %v", err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	if !strings.Contains(lines[1], "SYS exit") {
		t.Errorf("line 1 = %q, want SYS exit", lines[1])
	}
}

func TestUndefinedLabel(t *testing.T) {
	e := NewEncoder()
	e.Jmp("nowhere")
	if _, err := e.Finish(); err == nil {
		t.Error("Finish with undefined label: want error")
	}
}

func TestSysName(t *testing.T) {
	if SysName(SysBeginAtomic) != "begin_atomic" {
		t.Errorf("SysName(SysBeginAtomic) = %q", SysName(SysBeginAtomic))
	}
	if SysName(99) != "sys99" {
		t.Errorf("SysName(99) = %q", SysName(99))
	}
}

// TestExhaustiveOpcodeLengths decodes one instance of every defined opcode
// and checks decode length consistency against a zero-padded buffer.
func TestExhaustiveOpcodeLengths(t *testing.T) {
	ops := []Op{OpNOP, OpHLT, OpMOVQ, OpMOVL, OpMOVR,
		OpADD, OpSUB, OpMUL, OpDIV, OpMOD, OpAND, OpOR, OpXOR, OpSHL, OpSHR,
		OpCEQ, OpCNE, OpCLT, OpCLE, OpCGT, OpCGE, OpADDI,
		OpPUSH, OpPOP, OpJMP, OpJZ, OpJNZ, OpCALL, OpCALLM, OpRET, OpSYS}
	for _, base := range []Op{OpLD, OpST, OpLDR, OpSTR, OpPUSHM} {
		for w := Op(0); w < 4; w++ {
			ops = append(ops, base+w)
		}
	}
	for _, op := range ops {
		buf := make([]byte, 16)
		buf[0] = byte(op)
		in, err := Decode(buf, 0)
		if err != nil {
			t.Errorf("Decode(%v): %v", op, err)
			continue
		}
		if in.Op != op {
			t.Errorf("Decode(%v) yielded op %v", op, in.Op)
		}
		if in.Len == 0 || in.Len > 10 {
			t.Errorf("%v: length %d", op, in.Len)
		}
		if in.String() == "" {
			t.Errorf("%v: empty disassembly", op)
		}
	}
}
