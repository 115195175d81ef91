// Package isa defines the instruction set of the simulated machine that
// Kivati-protected programs run on.
//
// The ISA is deliberately variable-length encoded: the paper's prevention
// engine must roll the program counter back over the instruction that caused
// a watchpoint trap, and on x86 that is only possible with a pre-computed
// instruction-boundary table because instructions cannot be decoded
// backwards. This package provides the binary encoder, the decoder, a
// disassembler, and the pre-processing pass (Preprocess) that builds the
// boundary table the kernel undo engine consumes.
//
// Machine model: 16 general-purpose 64-bit registers R0..R15. R14 is the
// stack pointer (SP) and R15 the frame pointer (FP) by software convention;
// PUSH/POP/CALL/RET manipulate R14 in hardware. Memory is byte addressable
// with 32-bit addresses; loads and stores come in 1, 2, 4 and 8 byte widths,
// matching the sizes an x86 debug register can watch.
package isa

import "fmt"

// Register aliases fixed by the hardware (PUSH/POP/CALL/RET) and by the
// software calling convention.
const (
	RegSP = 14 // stack pointer, used by PUSH/POP/CALL/RET
	RegFP = 15 // frame pointer (software convention)

	NumRegs = 16
)

// Op is an opcode. Width-parametric memory opcodes reserve four consecutive
// values; the low two bits select log2 of the access width.
type Op uint8

// IsKernelBoundary reports whether the op leaves user-mode straight-line
// execution: it enters the kernel (SYS) or ends the thread (HLT). The VM's
// basic-block fast path must stop before such an instruction.
func (o Op) IsKernelBoundary() bool { return o == OpSYS || o == OpHLT }

// IsControlFlow reports whether the op ends a basic block by redirecting
// the program counter.
func (o Op) IsControlFlow() bool {
	switch o {
	case OpJMP, OpJZ, OpJNZ, OpCALL, OpCALLM, OpRET:
		return true
	}
	return false
}

// Opcode space. Memory opcodes (OpLD, OpST, OpLDR, OpSTR, OpPUSHM) occupy
// aligned groups of four so that op&3 encodes log2(width).
const (
	OpNOP Op = 0x00
	OpHLT Op = 0x01

	OpMOVQ Op = 0x02 // MOVQ rd, imm64
	OpMOVL Op = 0x03 // MOVL rd, imm32 (sign-extended)
	OpMOVR Op = 0x04 // MOVR rd, rs

	// ALU register-register: op rd, ra, rb.
	OpADD Op = 0x08
	OpSUB Op = 0x09
	OpMUL Op = 0x0a
	OpDIV Op = 0x0b
	OpMOD Op = 0x0c
	OpAND Op = 0x0d
	OpOR  Op = 0x0e
	OpXOR Op = 0x0f
	OpSHL Op = 0x10
	OpSHR Op = 0x11

	// Comparisons setting rd to 0/1: op rd, ra, rb.
	OpCEQ Op = 0x12
	OpCNE Op = 0x13
	OpCLT Op = 0x14
	OpCLE Op = 0x15
	OpCGT Op = 0x16
	OpCGE Op = 0x17

	OpADDI Op = 0x18 // ADDI rd, ra, imm32

	// Absolute-address loads/stores (globals): width = 1<<(op&3).
	OpLD Op = 0x20 // +0..3: LD{1,2,4,8} rd, [addr32]
	OpST Op = 0x24 // +0..3: ST{1,2,4,8} [addr32], rs

	// Register-base loads/stores (stack, pointers): width = 1<<(op&3).
	OpLDR Op = 0x28 // +0..3: LDR{1,2,4,8} rd, [rb+off32]
	OpSTR Op = 0x2c // +0..3: STR{1,2,4,8} [rb+off32], rs

	// Stack operations (all 8-byte).
	OpPUSH  Op = 0x30 // PUSH rs
	OpPOP   Op = 0x31 // POP rd
	OpPUSHM Op = 0x34 // +0..3: PUSHM{1,2,4,8} [addr32] — memory-to-stack move

	// Control flow.
	OpJMP   Op = 0x40 // JMP addr32
	OpJZ    Op = 0x41 // JZ rs, addr32
	OpJNZ   Op = 0x42 // JNZ rs, addr32
	OpCALL  Op = 0x43 // CALL addr32 (pushes return PC)
	OpCALLM Op = 0x44 // CALLM [addr32] — indirect call through memory
	OpRET   Op = 0x45

	OpSYS Op = 0x50 // SYS n
)

// Syscall numbers for the SYS instruction. Arguments are passed in R0..R4
// and results returned in R0, mirroring a conventional ABI.
const (
	SysExit        = 0  // exit current thread
	SysBeginAtomic = 1  // R0=AR id, R1=addr, R2=size, R3=watch types, R4=first access type
	SysEndAtomic   = 2  // R0=AR id, R1=second access type
	SysClearAR     = 3  // clear ARs begun at >= current call depth
	SysLock        = 4  // R0=lock addr
	SysUnlock      = 5  // R0=lock addr
	SysYield       = 6  //
	SysSleep       = 7  // R0=ticks
	SysPrint       = 8  // R0=value
	SysSpawn       = 9  // R0=function PC, R1=argument (placed in new thread's R8)
	SysRand        = 10 // R0 <- pseudo-random non-negative value
	SysRecv        = 11 // R0 <- request id (blocks until a request arrives)
	SysSend        = 12 // R0=request id (completes the request)
	SysNanos       = 13 // R0 <- current virtual clock tick
)

// Instr is a decoded instruction.
type Instr struct {
	Op   Op
	Rd   uint8  // destination register
	Ra   uint8  // first source register / base register
	Rb   uint8  // second source register
	Imm  int64  // immediate (MOVQ/MOVL/ADDI, branch offsets use Addr)
	Addr uint32 // absolute address or jump target
	Sz   uint8  // memory access width in bytes (1, 2, 4, 8)
	Len  uint8  // encoded length in bytes
}

// widthGroup reports whether op belongs to the aligned four-opcode group
// starting at base, and the access width it encodes.
func widthGroup(op, base Op) (uint8, bool) {
	if op >= base && op < base+4 {
		return 1 << (op & 3), true
	}
	return 0, false
}

// lengths per opcode family (fixed per opcode, variable across opcodes).
func opLen(op Op) (int, error) {
	switch {
	case op == OpNOP, op == OpHLT, op == OpRET:
		return 1, nil
	case op == OpMOVQ:
		return 10, nil
	case op == OpMOVL:
		return 6, nil
	case op == OpMOVR:
		return 3, nil
	case op >= OpADD && op <= OpCGE:
		return 4, nil
	case op == OpADDI:
		return 7, nil
	case op >= OpLD && op < OpLD+4, op >= OpST && op < OpST+4:
		return 6, nil
	case op >= OpLDR && op < OpLDR+4, op >= OpSTR && op < OpSTR+4:
		return 7, nil
	case op == OpPUSH, op == OpPOP:
		return 2, nil
	case op >= OpPUSHM && op < OpPUSHM+4:
		return 5, nil
	case op == OpJMP, op == OpCALL, op == OpCALLM:
		return 5, nil
	case op == OpJZ, op == OpJNZ:
		return 6, nil
	case op == OpSYS:
		return 2, nil
	}
	return 0, fmt.Errorf("isa: unknown opcode %#02x", uint8(op))
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func get64(b []byte) uint64 {
	return uint64(get32(b)) | uint64(get32(b[4:]))<<32
}

// Decode decodes the instruction starting at pc. It returns an error for an
// unknown opcode or a truncated encoding.
func Decode(code []byte, pc uint32) (Instr, error) {
	if int(pc) >= len(code) {
		return Instr{}, fmt.Errorf("isa: pc %#x out of bounds (code %d bytes)", pc, len(code))
	}
	op := Op(code[pc])
	n, err := opLen(op)
	if err != nil {
		return Instr{}, fmt.Errorf("isa: at pc %#x: %w", pc, err)
	}
	if int(pc)+n > len(code) {
		return Instr{}, fmt.Errorf("isa: truncated instruction %#02x at pc %#x", uint8(op), pc)
	}
	b := code[pc : int(pc)+n]
	in := Instr{Op: op, Len: uint8(n)}
	switch {
	case op == OpNOP, op == OpHLT, op == OpRET:
	case op == OpMOVQ:
		in.Rd = b[1]
		in.Imm = int64(get64(b[2:]))
	case op == OpMOVL:
		in.Rd = b[1]
		in.Imm = int64(int32(get32(b[2:])))
	case op == OpMOVR:
		in.Rd, in.Ra = b[1], b[2]
	case op >= OpADD && op <= OpCGE:
		in.Rd, in.Ra, in.Rb = b[1], b[2], b[3]
	case op == OpADDI:
		in.Rd, in.Ra = b[1], b[2]
		in.Imm = int64(int32(get32(b[3:])))
	default:
		if sz, ok := widthGroup(op, OpLD); ok {
			in.Sz, in.Rd, in.Addr = sz, b[1], get32(b[2:])
			break
		}
		if sz, ok := widthGroup(op, OpST); ok {
			in.Sz, in.Ra, in.Addr = sz, b[1], get32(b[2:])
			break
		}
		if sz, ok := widthGroup(op, OpLDR); ok {
			in.Sz, in.Rd, in.Ra = sz, b[1], b[2]
			in.Imm = int64(int32(get32(b[3:])))
			break
		}
		if sz, ok := widthGroup(op, OpSTR); ok {
			in.Sz, in.Ra, in.Rb = sz, b[1], b[2] // Ra = base, Rb = source value
			in.Imm = int64(int32(get32(b[3:])))
			break
		}
		if sz, ok := widthGroup(op, OpPUSHM); ok {
			in.Sz, in.Addr = sz, get32(b[1:])
			break
		}
		switch op {
		case OpPUSH:
			in.Ra = b[1]
		case OpPOP:
			in.Rd = b[1]
		case OpJMP, OpCALL, OpCALLM:
			in.Addr = get32(b[1:])
		case OpJZ, OpJNZ:
			in.Ra = b[1]
			in.Addr = get32(b[2:])
		case OpSYS:
			in.Imm = int64(b[1])
		}
	}
	if in.Rd >= NumRegs || in.Ra >= NumRegs || in.Rb >= NumRegs {
		return Instr{}, fmt.Errorf("isa: %v at pc %#x names register outside R0..R%d", op, pc, NumRegs-1)
	}
	return in, nil
}

// AccessesMemory reports whether op reads or writes data memory when
// executed (instruction fetch does not count). These are exactly the
// instructions the pre-processing pass records in the boundary table.
func AccessesMemory(op Op) bool {
	switch {
	case op >= OpLD && op < OpLD+4,
		op >= OpST && op < OpST+4,
		op >= OpLDR && op < OpLDR+4,
		op >= OpSTR && op < OpSTR+4,
		op >= OpPUSHM && op < OpPUSHM+4:
		return true
	}
	switch op {
	case OpPUSH, OpPOP, OpCALL, OpCALLM, OpRET:
		return true
	}
	return false
}

func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	if sz, ok := widthGroup(op, OpLD); ok {
		return fmt.Sprintf("LD%d", sz)
	}
	if sz, ok := widthGroup(op, OpST); ok {
		return fmt.Sprintf("ST%d", sz)
	}
	if sz, ok := widthGroup(op, OpLDR); ok {
		return fmt.Sprintf("LDR%d", sz)
	}
	if sz, ok := widthGroup(op, OpSTR); ok {
		return fmt.Sprintf("STR%d", sz)
	}
	if sz, ok := widthGroup(op, OpPUSHM); ok {
		return fmt.Sprintf("PUSHM%d", sz)
	}
	return fmt.Sprintf("OP(%#02x)", uint8(op))
}

var opNames = map[Op]string{
	OpNOP: "NOP", OpHLT: "HLT", OpMOVQ: "MOVQ", OpMOVL: "MOVL", OpMOVR: "MOVR",
	OpADD: "ADD", OpSUB: "SUB", OpMUL: "MUL", OpDIV: "DIV", OpMOD: "MOD",
	OpAND: "AND", OpOR: "OR", OpXOR: "XOR", OpSHL: "SHL", OpSHR: "SHR",
	OpCEQ: "CEQ", OpCNE: "CNE", OpCLT: "CLT", OpCLE: "CLE", OpCGT: "CGT", OpCGE: "CGE",
	OpADDI: "ADDI", OpPUSH: "PUSH", OpPOP: "POP",
	OpJMP: "JMP", OpJZ: "JZ", OpJNZ: "JNZ", OpCALL: "CALL", OpCALLM: "CALLM", OpRET: "RET",
	OpSYS: "SYS",
}

var sysNames = [...]string{
	SysExit: "exit", SysBeginAtomic: "begin_atomic", SysEndAtomic: "end_atomic",
	SysClearAR: "clear_ar", SysLock: "lock", SysUnlock: "unlock", SysYield: "yield",
	SysSleep: "sleep", SysPrint: "print", SysSpawn: "spawn", SysRand: "rand",
	SysRecv: "recv", SysSend: "send", SysNanos: "nanos",
}

// SysName returns the symbolic name of a syscall number.
func SysName(n int64) string {
	if n >= 0 && int(n) < len(sysNames) && sysNames[n] != "" {
		return sysNames[n]
	}
	return fmt.Sprintf("sys%d", n)
}

// String disassembles a decoded instruction.
func (in Instr) String() string {
	op := in.Op
	switch {
	case op == OpNOP, op == OpHLT, op == OpRET:
		return op.String()
	case op == OpMOVQ, op == OpMOVL:
		return fmt.Sprintf("%s r%d, %d", op, in.Rd, in.Imm)
	case op == OpMOVR:
		return fmt.Sprintf("MOVR r%d, r%d", in.Rd, in.Ra)
	case op >= OpADD && op <= OpCGE:
		return fmt.Sprintf("%s r%d, r%d, r%d", op, in.Rd, in.Ra, in.Rb)
	case op == OpADDI:
		return fmt.Sprintf("ADDI r%d, r%d, %d", in.Rd, in.Ra, in.Imm)
	case op == OpPUSH:
		return fmt.Sprintf("PUSH r%d", in.Ra)
	case op == OpPOP:
		return fmt.Sprintf("POP r%d", in.Rd)
	case op == OpJMP, op == OpCALL:
		return fmt.Sprintf("%s %#x", op, in.Addr)
	case op == OpCALLM:
		return fmt.Sprintf("CALLM [%#x]", in.Addr)
	case op == OpJZ, op == OpJNZ:
		return fmt.Sprintf("%s r%d, %#x", op, in.Ra, in.Addr)
	case op == OpSYS:
		return fmt.Sprintf("SYS %s", SysName(in.Imm))
	}
	if _, ok := widthGroup(op, OpLD); ok {
		return fmt.Sprintf("%s r%d, [%#x]", op, in.Rd, in.Addr)
	}
	if _, ok := widthGroup(op, OpST); ok {
		return fmt.Sprintf("%s [%#x], r%d", op, in.Addr, in.Ra)
	}
	if _, ok := widthGroup(op, OpLDR); ok {
		return fmt.Sprintf("%s r%d, [r%d%+d]", op, in.Rd, in.Ra, in.Imm)
	}
	if _, ok := widthGroup(op, OpSTR); ok {
		return fmt.Sprintf("%s [r%d%+d], r%d", op, in.Ra, in.Imm, in.Rb)
	}
	if _, ok := widthGroup(op, OpPUSHM); ok {
		return fmt.Sprintf("%s [%#x]", op, in.Addr)
	}
	return op.String()
}

// WidthOp returns the width-specific opcode for a base memory opcode group
// (OpLD, OpST, OpLDR, OpSTR, OpPUSHM) and a width of 1, 2, 4 or 8 bytes.
func WidthOp(base Op, size int) (Op, error) {
	switch base {
	case OpLD, OpST, OpLDR, OpSTR, OpPUSHM:
	default:
		return 0, fmt.Errorf("isa: %v is not a width-parametric opcode", base)
	}
	switch size {
	case 1:
		return base, nil
	case 2:
		return base + 1, nil
	case 4:
		return base + 2, nil
	case 8:
		return base + 3, nil
	}
	return 0, fmt.Errorf("isa: invalid access width %d", size)
}
