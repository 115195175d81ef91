package isa

import (
	"bytes"
	"testing"
)

// fuzzSeedCode assembles a representative instruction stream covering every
// opcode family, used both as a fuzz seed and as a direct round-trip case.
func fuzzSeedCode(t testing.TB) []byte {
	e := NewEncoder()
	e.Nop()
	e.MovImm(0, 42)    // MOVL
	e.MovImm(1, 1<<40) // MOVQ
	e.MovReg(2, 1)
	e.ALU(OpADD, 3, 0, 1)
	e.ALU(OpCGE, 4, 3, 0)
	e.AddImm(5, 3, -7)
	for _, sz := range []int{1, 2, 4, 8} {
		e.Load(6, 0x1000, sz)
		e.Store(0x1008, 6, sz)
		e.LoadReg(7, RegFP, -16, sz)
		e.StoreReg(RegFP, -24, 7, sz)
		e.PushMem(0x1010, sz)
	}
	e.Push(8)
	e.Pop(9)
	e.Label("loop")
	e.Jnz(9, "loop")
	e.Jz(9, "loop")
	e.Jmp("loop")
	e.Call("loop")
	e.CallMem(0x2000)
	e.Sys(SysYield)
	e.Ret()
	e.Hlt()
	code, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// FuzzISARoundTrip checks the encoder/decoder inverse property on arbitrary
// byte streams: every decodable instruction must re-encode byte-identically
// (and therefore re-decode to the same Instr). The undo engine's backwards
// PC walk is only sound if instruction boundaries are exactly what the
// decoder claims, which this property pins down.
func FuzzISARoundTrip(f *testing.F) {
	f.Add(fuzzSeedCode(f))
	f.Add([]byte{uint8(OpNOP), uint8(OpRET), uint8(OpHLT)})
	f.Add([]byte{uint8(OpSYS), SysBeginAtomic, uint8(OpSYS), SysEndAtomic})
	f.Add([]byte{uint8(OpMOVQ), 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{uint8(OpMOVQ), 200, 7, 0, 0, 0, 0, 0, 0, 0}) // register out of range
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 1<<16 {
			return
		}
		for pc := uint32(0); int(pc) < len(code); {
			in, err := Decode(code, pc)
			if err != nil {
				return // undecodable tail: nothing to round-trip
			}
			if in.Len == 0 {
				t.Fatalf("pc %#x: decoded zero-length instruction %v", pc, in)
			}
			enc, err := EncodeInstr(in)
			if err != nil {
				t.Fatalf("pc %#x: decoded %v but cannot re-encode: %v", pc, in, err)
			}
			orig := code[pc : pc+uint32(in.Len)]
			if !bytes.Equal(enc, orig) {
				t.Fatalf("pc %#x: %v re-encodes to % x, original % x", pc, in, enc, orig)
			}
			again, err := Decode(enc, 0)
			if err != nil {
				t.Fatalf("pc %#x: re-encoded bytes do not decode: %v", pc, err)
			}
			if again != in {
				t.Fatalf("pc %#x: re-decode mismatch: %+v != %+v", pc, again, in)
			}
			pc += uint32(in.Len)
		}
	})
}

// TestEncodeInstrMatchesEncoder cross-checks EncodeInstr against the
// assembling Encoder over the full seed stream.
func TestEncodeInstrMatchesEncoder(t *testing.T) {
	code := fuzzSeedCode(t)
	var rebuilt []byte
	for pc := uint32(0); int(pc) < len(code); {
		in, err := Decode(code, pc)
		if err != nil {
			t.Fatalf("pc %#x: %v", pc, err)
		}
		enc, err := EncodeInstr(in)
		if err != nil {
			t.Fatalf("pc %#x: %v", pc, err)
		}
		rebuilt = append(rebuilt, enc...)
		pc += uint32(in.Len)
	}
	if !bytes.Equal(rebuilt, code) {
		t.Fatal("instruction-by-instruction re-encoding does not reproduce the stream")
	}
}

// TestEncodeInstrRejectsUnknownOp: an opcode outside the ISA is an error,
// not a silent emission.
func TestEncodeInstrRejectsUnknownOp(t *testing.T) {
	if _, err := EncodeInstr(Instr{Op: 0xee}); err == nil {
		t.Error("EncodeInstr accepted an unknown opcode")
	}
}
