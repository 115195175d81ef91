// Package compile lowers annotated MiniC programs to the machine's
// variable-length binary ISA. Beyond code generation it produces the two
// artifacts Kivati's kernel needs (§3.3): the instruction-boundary table
// from the binary pre-processing pass, and the subroutine entry list for the
// indirect-call special case. It also records a PC→source-position map so
// violation reports can name source lines, and the set of synchronization
// variables (lock/unlock operands) used to seed the whitelist
// (optimization 4).
package compile

import (
	"fmt"
	"sort"

	"kivati/internal/annotate"
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/minic"
)

// Options control code generation.
type Options struct {
	// Annotate emits begin_atomic/end_atomic/clear_ar syscalls. False
	// produces the vanilla binary used as the performance baseline.
	Annotate bool
	// ShadowWrites duplicates stores that are the first local write of an
	// AR into the shadow page (required when running with optimization 3,
	// which disables watchpoints for the local thread).
	ShadowWrites bool
}

// PCPos maps a code offset to the source position of the statement it
// belongs to.
type PCPos struct {
	PC  uint32
	Pos minic.Pos
}

// Binary is a compiled program image.
type Binary struct {
	Code        []byte
	Funcs       map[string]uint32 // function name -> entry PC
	FuncEntries []uint32
	ExitStub    uint32            // PC of the thread-exit stub
	Globals     map[string]uint32 // global name -> address
	InitMem     map[uint32]int64  // initial memory values (global initializers)
	Boundary    *isa.BoundaryTable
	// Footprints is the per-PC static address footprint of the straight-line
	// suffix starting at each instruction (see footprint.go); the VM's
	// superstep dispatcher tests it against the armed watchpoint window.
	Footprints []isa.Footprint
	SyncVars   map[string]bool // names passed to lock/unlock
	Annotated  *annotate.Program
	Opts       Options

	pcpos []PCPos // sorted by PC
}

// PosAt returns the source position of the statement containing pc.
func (b *Binary) PosAt(pc uint32) (minic.Pos, bool) {
	i := sort.Search(len(b.pcpos), func(i int) bool { return b.pcpos[i].PC > pc })
	if i == 0 {
		return minic.Pos{}, false
	}
	return b.pcpos[i-1].Pos, true
}

// FuncAt returns the name of the function containing pc, or "".
func (b *Binary) FuncAt(pc uint32) string {
	name, best := "", uint32(0)
	for n, entry := range b.Funcs {
		if entry <= pc && entry >= best {
			name, best = n, entry
		}
	}
	return name
}

// scratch registers available to expression evaluation.
const (
	scratchLo = 1
	scratchHi = 7
	argRegLo  = 8 // user-call arguments go in R8..R13
	maxArgs   = 6
)

type cg struct {
	enc    *isa.Encoder
	bin    *Binary
	ap     *annotate.Program
	opts   Options
	fn     *minic.FuncDecl
	fa     *annotate.FuncAnnotations
	locals map[string]int32 // name -> frame offset (slot at FP-off)
	frame  int32
	labelN int

	alloced [scratchHi + 1]bool // index = register number

	stmtNode map[minic.Stmt]*cfgNodeAnns
	condNode map[minic.Stmt]*cfgNodeAnns
}

// cfgNodeAnns caches the begin/end AR lists for one CFG node.
type cfgNodeAnns struct {
	begin []*annotate.AR
	end   []*annotate.AR
}

// Compile lowers an annotated program. Code-generation capacity limits
// (e.g. expressions deeper than the scratch register pool) surface as
// errors, not panics.
func Compile(ap *annotate.Program, opts Options) (bin *Binary, err error) {
	defer func() {
		if r := recover(); r != nil {
			bin, err = nil, fmt.Errorf("compile: %v", r)
		}
	}()
	return compileProgram(ap, opts)
}

func compileProgram(ap *annotate.Program, opts Options) (*Binary, error) {
	bin := &Binary{
		Funcs:     make(map[string]uint32),
		Globals:   make(map[string]uint32),
		InitMem:   make(map[uint32]int64),
		SyncVars:  collectSyncVars(ap.Prog),
		Annotated: ap,
		Opts:      opts,
	}
	// Lay out globals.
	addr := GlobalsBase
	for _, g := range ap.Prog.Globals {
		bin.Globals[g.Name] = addr
		if g.Init != nil {
			bin.InitMem[addr] = g.Init.(*minic.IntLit).V
		}
		addr += uint32(g.Type.Size())
		// Keep variables 8-byte aligned and non-adjacent enough that an
		// 8-byte watchpoint on one never overlaps its neighbor.
		addr = (addr + 7) &^ 7
	}
	if addr >= StackBase {
		return nil, fmt.Errorf("compile: globals exceed %d bytes", StackBase-GlobalsBase)
	}

	enc := isa.NewEncoder()
	// Thread exit stub at PC 0: new threads get this as their return
	// address, and falling off a void function lands here.
	bin.ExitStub = enc.PC()
	enc.Sys(isa.SysExit)

	for _, fa := range ap.Funcs {
		c := &cg{enc: enc, bin: bin, ap: ap, opts: opts, fn: fa.Fn, fa: fa}
		if err := c.function(); err != nil {
			return nil, err
		}
	}
	code, err := enc.Finish()
	if err != nil {
		return nil, err
	}
	bin.Code = code
	for _, fa := range ap.Funcs {
		pc, _ := enc.LabelPC("fn_" + fa.Fn.Name)
		bin.Funcs[fa.Fn.Name] = pc
		bin.FuncEntries = append(bin.FuncEntries, pc)
	}
	bt, err := isa.Preprocess(code, bin.FuncEntries)
	if err != nil {
		return nil, fmt.Errorf("compile: preprocessing pass: %w", err)
	}
	bin.Boundary = bt
	fps, err := FootprintsAnalyzed(code, bin.FuncEntries)
	if err != nil {
		return nil, fmt.Errorf("compile: footprint pass: %w", err)
	}
	bin.Footprints = fps
	return bin, nil
}

func collectSyncVars(prog *minic.Program) map[string]bool {
	out := map[string]bool{}
	visit := func(x minic.Expr) bool {
		if e, ok := x.(*minic.Call); ok && (e.Name == "lock" || e.Name == "unlock") {
			if id, ok := e.Args[0].(*minic.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	}
	for _, f := range prog.Funcs {
		minic.WalkStmts(f.Body, func(s minic.Stmt) {
			minic.StmtExprs(s, func(x minic.Expr) { minic.Inspect(x, visit) })
		})
	}
	return out
}

func (c *cg) label(kind string) string {
	c.labelN++
	return fmt.Sprintf("%s_%s%d", c.fn.Name, kind, c.labelN)
}

func (c *cg) alloc() uint8 {
	for r := scratchLo; r <= scratchHi; r++ {
		if !c.alloced[r] {
			c.alloced[r] = true
			return uint8(r)
		}
	}
	panic(fmt.Sprintf("compile: %s: expression too deep (out of scratch registers)", c.fn.Name))
}

func (c *cg) free(r uint8) {
	if r < scratchLo || r > scratchHi || !c.alloced[r] {
		panic(fmt.Sprintf("compile: bad free of r%d", r))
	}
	c.alloced[r] = false
}

func (c *cg) allocatedScratch() []uint8 {
	var out []uint8
	for r := scratchLo; r <= scratchHi; r++ {
		if c.alloced[r] {
			out = append(out, uint8(r))
		}
	}
	return out
}

func (c *cg) mark(pos minic.Pos) {
	c.bin.pcpos = append(c.bin.pcpos, PCPos{PC: c.enc.PC(), Pos: pos})
}

// function compiles one function: prologue (frame setup, parameter spill),
// body, and a shared epilogue carrying the clear_ar annotation.
func (c *cg) function() error {
	c.enc.Label("fn_" + c.fn.Name)
	c.mark(c.fn.Pos)

	// Index CFG nodes by statement / condition owner.
	c.stmtNode = map[minic.Stmt]*cfgNodeAnns{}
	c.condNode = map[minic.Stmt]*cfgNodeAnns{}
	for _, n := range c.fa.Graph.Nodes {
		anns := &cfgNodeAnns{begin: c.fa.Begin[n], end: c.fa.End[n]}
		sort.Slice(anns.begin, func(i, j int) bool { return anns.begin[i].ID < anns.begin[j].ID })
		sort.Slice(anns.end, func(i, j int) bool { return anns.end[i].ID < anns.end[j].ID })
		if len(anns.begin) == 0 && len(anns.end) == 0 {
			continue
		}
		switch {
		case n.Stmt != nil:
			c.stmtNode[n.Stmt] = anns
		case n.Owner != nil:
			c.condNode[n.Owner] = anns
		}
	}

	// Frame layout: parameters first, then locals, each one 8-byte slot
	// (arrays get ArrayLen slots).
	c.locals = map[string]int32{}
	c.frame = 0
	for _, d := range c.fn.Locals() {
		if _, dup := c.locals[d.Name]; dup {
			return fmt.Errorf("compile: duplicate local %q in %s", d.Name, c.fn.Name)
		}
		c.frame += int32(d.Type.Size())
		c.locals[d.Name] = c.frame
	}
	if len(c.fn.Params) > maxArgs {
		return fmt.Errorf("compile: %s: more than %d parameters", c.fn.Name, maxArgs)
	}

	// Prologue.
	c.enc.Push(isa.RegFP)
	c.enc.MovReg(isa.RegFP, isa.RegSP)
	if c.frame > 0 {
		c.enc.AddImm(isa.RegSP, isa.RegSP, -c.frame)
	}
	// Spill parameters to their slots so they have addresses.
	for i, p := range c.fn.Params {
		c.enc.StoreReg(isa.RegFP, -c.locals[p.Name], uint8(argRegLo+i), 8)
	}

	epilogue := "fn_" + c.fn.Name + "_epilogue"
	if err := c.block(c.fn.Body, epilogue); err != nil {
		return err
	}

	// Epilogue: clear_ar at every subroutine exit (§3.1), then frame
	// teardown.
	c.enc.Label(epilogue)
	if c.opts.Annotate {
		c.enc.Sys(isa.SysClearAR)
	}
	c.enc.MovReg(isa.RegSP, isa.RegFP)
	c.enc.Pop(isa.RegFP)
	c.enc.Ret()
	return nil
}

func (c *cg) block(b *minic.Block, epilogue string) error {
	for _, s := range b.Stmts {
		if err := c.stmt(s, epilogue); err != nil {
			return err
		}
	}
	return nil
}

// emitBegins emits the begin_atomic syscalls for a node. Must be called with
// no scratch registers allocated.
func (c *cg) emitBegins(anns *cfgNodeAnns) {
	if anns == nil || !c.opts.Annotate {
		return
	}
	for _, ar := range anns.begin {
		a := c.alloc()
		c.evalAddr(ar.Target, a)
		if a != 1 {
			c.enc.MovReg(1, a)
		}
		c.free(a)
		c.enc.MovImm(0, int64(ar.ID))
		c.enc.MovImm(2, int64(ar.Size))
		c.enc.MovImm(3, int64(ar.Watch))
		c.enc.MovImm(4, int64(ar.First))
		c.enc.Sys(isa.SysBeginAtomic)
	}
}

func (c *cg) emitEnds(anns *cfgNodeAnns) {
	if !c.hasEnds(anns) {
		return
	}
	for _, ar := range anns.end {
		c.enc.MovImm(0, int64(ar.ID))
		c.enc.MovImm(1, int64(ar.Second))
		c.enc.Sys(isa.SysEndAtomic)
	}
}

func (c *cg) hasEnds(anns *cfgNodeAnns) bool {
	return anns != nil && c.opts.Annotate && len(anns.end) > 0
}

// emitEndsPreserving emits end_atomic annotations while keeping the value of
// register r intact (the end_atomic ABI clobbers R0 and R1, which may hold a
// live condition result or return value).
func (c *cg) emitEndsPreserving(anns *cfgNodeAnns, r uint8) {
	if !c.hasEnds(anns) {
		return
	}
	if r <= 1 {
		c.enc.Push(r)
		c.emitEnds(anns)
		c.enc.Pop(r)
		return
	}
	c.emitEnds(anns)
}

// needsShadow reports whether the store in this statement must be duplicated
// into the shadow page: it is the first local access of some AR and that
// access is a write.
func (c *cg) needsShadow(anns *cfgNodeAnns) bool {
	if anns == nil || !c.opts.ShadowWrites || !c.opts.Annotate {
		return false
	}
	for _, ar := range anns.begin {
		if ar.First == hw.Write {
			return true
		}
	}
	return false
}

func (c *cg) stmt(s minic.Stmt, epilogue string) error {
	anns := c.stmtNode[s]
	switch st := s.(type) {
	case *minic.DeclStmt:
		c.mark(st.Pos)
		c.emitBegins(anns)
		if st.Decl.Init != nil {
			r := c.alloc()
			c.evalExpr(st.Decl.Init, r)
			c.enc.StoreReg(isa.RegFP, -c.locals[st.Decl.Name], r, 8)
			if c.needsShadow(anns) {
				c.shadowStoreLocal(st.Decl.Name, r)
			}
			c.free(r)
		}
		c.emitEnds(anns)
	case *minic.AssignStmt:
		c.mark(st.Pos)
		c.emitBegins(anns)
		r := c.alloc()
		c.evalExpr(st.RHS, r)
		c.store(st.LHS, r, c.needsShadow(anns))
		c.free(r)
		c.emitEnds(anns)
	case *minic.ExprStmt:
		c.mark(st.Pos)
		c.emitBegins(anns)
		r := c.alloc()
		c.evalExpr(st.X, r)
		c.free(r)
		c.emitEnds(anns)
	case *minic.ReturnStmt:
		c.mark(st.Pos)
		c.emitBegins(anns)
		if st.X != nil {
			r := c.alloc()
			c.evalExpr(st.X, r)
			c.emitEndsPreserving(anns, r)
			c.enc.MovReg(0, r)
			c.free(r)
		} else {
			c.enc.MovImm(0, 0)
			c.emitEnds(anns)
		}
		c.enc.Jmp(epilogue)
	case *minic.IfStmt:
		c.mark(st.Pos)
		condAnns := c.condNode[s]
		c.emitBegins(condAnns)
		r := c.alloc()
		c.evalExpr(st.Cond, r)
		c.emitEndsPreserving(condAnns, r)
		elseL := c.label("else")
		endL := c.label("endif")
		c.enc.Jz(r, elseL)
		c.free(r)
		if err := c.block(st.Then, epilogue); err != nil {
			return err
		}
		if st.Else != nil {
			c.enc.Jmp(endL)
			c.enc.Label(elseL)
			if err := c.block(st.Else, epilogue); err != nil {
				return err
			}
			c.enc.Label(endL)
		} else {
			c.enc.Label(elseL)
		}
	case *minic.WhileStmt:
		c.mark(st.Pos)
		condAnns := c.condNode[s]
		topL := c.label("while")
		outL := c.label("endwhile")
		c.enc.Label(topL)
		c.emitBegins(condAnns)
		r := c.alloc()
		c.evalExpr(st.Cond, r)
		c.emitEndsPreserving(condAnns, r)
		c.enc.Jz(r, outL)
		c.free(r)
		if err := c.block(st.Body, epilogue); err != nil {
			return err
		}
		c.enc.Jmp(topL)
		c.enc.Label(outL)
	case *minic.AnnotStmt:
		return fmt.Errorf("compile: AnnotStmt in AST; the compiler consumes annotation maps, not AST annotations")
	default:
		return fmt.Errorf("compile: unknown statement %T", s)
	}
	return nil
}

// store writes register r to the lvalue, optionally duplicating into the
// shadow page.
func (c *cg) store(lhs minic.Expr, r uint8, shadow bool) {
	switch e := lhs.(type) {
	case *minic.Ident:
		if off, ok := c.locals[e.Name]; ok {
			c.enc.StoreReg(isa.RegFP, -off, r, 8)
			if shadow {
				c.shadowStoreLocal(e.Name, r)
			}
			return
		}
		addr := c.bin.Globals[e.Name]
		c.enc.Store(addr, r, 8)
		if shadow {
			c.enc.Store(addr+ShadowDelta, r, 8)
		}
	case *minic.Index, *minic.Unary:
		a := c.alloc()
		c.evalAddr(e, a)
		c.enc.StoreReg(a, 0, r, 8)
		if shadow {
			c.enc.AddImm(a, a, int32(ShadowDelta))
			c.enc.StoreReg(a, 0, r, 8)
		}
		c.free(a)
	default:
		panic(fmt.Sprintf("compile: bad lvalue %T", lhs))
	}
}

// shadowStoreLocal duplicates a local-slot store into the shadow page. The
// slot address must be computed at run time (FP-relative).
func (c *cg) shadowStoreLocal(name string, r uint8) {
	a := c.alloc()
	c.enc.AddImm(a, isa.RegFP, -c.locals[name])
	c.enc.AddImm(a, a, int32(ShadowDelta))
	c.enc.StoreReg(a, 0, r, 8)
	c.free(a)
}

// evalAddr computes the address of an lvalue into dst.
func (c *cg) evalAddr(lv minic.Expr, dst uint8) {
	switch e := lv.(type) {
	case *minic.Ident:
		if off, ok := c.locals[e.Name]; ok {
			c.enc.AddImm(dst, isa.RegFP, -off)
			return
		}
		c.enc.MovImm(dst, int64(c.bin.Globals[e.Name]))
	case *minic.Index:
		c.evalExpr(e.Idx, dst)
		t := c.alloc()
		c.enc.MovImm(t, 8)
		c.enc.ALU(isa.OpMUL, dst, dst, t)
		if off, ok := c.locals[e.Name]; ok {
			c.enc.AddImm(t, isa.RegFP, -off)
		} else {
			c.enc.MovImm(t, int64(c.bin.Globals[e.Name]))
		}
		c.enc.ALU(isa.OpADD, dst, dst, t)
		c.free(t)
	case *minic.Unary: // *p: the address is p's value
		if e.Op != "*" {
			panic("compile: evalAddr of non-lvalue unary")
		}
		c.evalExpr(e.X, dst)
	default:
		panic(fmt.Sprintf("compile: evalAddr of %T", lv))
	}
}

// evalExpr evaluates x into dst (an allocated scratch register or any
// caller-chosen register).
func (c *cg) evalExpr(x minic.Expr, dst uint8) {
	switch e := x.(type) {
	case *minic.IntLit:
		c.enc.MovImm(dst, e.V)
	case *minic.Ident:
		if off, ok := c.locals[e.Name]; ok {
			c.enc.LoadReg(dst, isa.RegFP, -off, 8)
			return
		}
		c.enc.Load(dst, c.bin.Globals[e.Name], 8)
	case *minic.Index:
		c.evalAddr(e, dst)
		c.enc.LoadReg(dst, dst, 0, 8)
	case *minic.Unary:
		switch e.Op {
		case "-":
			c.evalExpr(e.X, dst)
			t := c.alloc()
			c.enc.MovImm(t, 0)
			c.enc.ALU(isa.OpSUB, dst, t, dst)
			c.free(t)
		case "!":
			c.evalExpr(e.X, dst)
			t := c.alloc()
			c.enc.MovImm(t, 0)
			c.enc.ALU(isa.OpCEQ, dst, dst, t)
			c.free(t)
		case "*":
			c.evalExpr(e.X, dst) // read the pointer variable
			c.enc.LoadReg(dst, dst, 0, 8)
		case "&":
			c.evalAddr(e.X, dst)
		}
	case *minic.Binary:
		c.evalExpr(e.X, dst)
		t := c.alloc()
		c.evalExpr(e.Y, t)
		switch e.Op {
		case "+":
			c.enc.ALU(isa.OpADD, dst, dst, t)
		case "-":
			c.enc.ALU(isa.OpSUB, dst, dst, t)
		case "*":
			c.enc.ALU(isa.OpMUL, dst, dst, t)
		case "/":
			c.enc.ALU(isa.OpDIV, dst, dst, t)
		case "%":
			c.enc.ALU(isa.OpMOD, dst, dst, t)
		case "&":
			c.enc.ALU(isa.OpAND, dst, dst, t)
		case "|":
			c.enc.ALU(isa.OpOR, dst, dst, t)
		case "^":
			c.enc.ALU(isa.OpXOR, dst, dst, t)
		case "<<":
			c.enc.ALU(isa.OpSHL, dst, dst, t)
		case ">>":
			c.enc.ALU(isa.OpSHR, dst, dst, t)
		case "==":
			c.enc.ALU(isa.OpCEQ, dst, dst, t)
		case "!=":
			c.enc.ALU(isa.OpCNE, dst, dst, t)
		case "<":
			c.enc.ALU(isa.OpCLT, dst, dst, t)
		case "<=":
			c.enc.ALU(isa.OpCLE, dst, dst, t)
		case ">":
			c.enc.ALU(isa.OpCGT, dst, dst, t)
		case ">=":
			c.enc.ALU(isa.OpCGE, dst, dst, t)
		case "&&", "||":
			// Non-short-circuit boolean: normalize both to 0/1, then
			// AND/OR.
			z := c.alloc()
			c.enc.MovImm(z, 0)
			c.enc.ALU(isa.OpCNE, dst, dst, z)
			c.enc.ALU(isa.OpCNE, t, t, z)
			c.free(z)
			if e.Op == "&&" {
				c.enc.ALU(isa.OpAND, dst, dst, t)
			} else {
				c.enc.ALU(isa.OpOR, dst, dst, t)
			}
		default:
			panic("compile: unknown binary op " + e.Op)
		}
		c.free(t)
	case *minic.Call:
		c.call(e, dst)
	default:
		panic(fmt.Sprintf("compile: unknown expression %T", x))
	}
}

func (c *cg) call(e *minic.Call, dst uint8) {
	if _, ok := minic.IsBuiltin(e.Name); ok {
		c.builtin(e, dst)
		return
	}
	// User call. Registers the callee may clobber and whose values this
	// expression still needs are saved around the call.
	saved := []uint8{}
	for _, r := range c.allocatedScratch() {
		if r != dst {
			saved = append(saved, r)
		}
	}
	for _, r := range saved {
		c.enc.Push(r)
	}
	// Arguments are staged on the stack — one scratch register suffices
	// regardless of arity, and nested calls inside later arguments cannot
	// clobber earlier ones.
	for _, a := range e.Args {
		r := c.alloc()
		c.evalExpr(a, r)
		c.enc.Push(r)
		c.free(r)
	}
	for i := len(e.Args) - 1; i >= 0; i-- {
		c.enc.Pop(uint8(argRegLo + i))
	}
	c.enc.Call("fn_" + e.Name)
	c.enc.MovReg(dst, 0)
	for i := len(saved) - 1; i >= 0; i-- {
		c.enc.Pop(saved[i])
	}
}

// builtin lowers a builtin call to a SYS instruction. Arguments go in
// R0/R1; lock and unlock receive the address of their operand.
func (c *cg) builtin(e *minic.Call, dst uint8) {
	// Save live scratch registers that overlap the syscall argument
	// registers R1..R4.
	saved := []uint8{}
	for _, r := range c.allocatedScratch() {
		if r != dst && r >= 1 && r <= 4 {
			saved = append(saved, r)
		}
	}
	for _, r := range saved {
		c.enc.Push(r)
	}
	switch e.Name {
	case "exit":
		c.enc.Sys(isa.SysExit)
	case "lock", "unlock":
		a := c.alloc()
		c.evalAddr(e.Args[0], a)
		c.enc.MovReg(0, a)
		c.free(a)
		if e.Name == "lock" {
			c.enc.Sys(isa.SysLock)
		} else {
			c.enc.Sys(isa.SysUnlock)
		}
	case "yield":
		c.enc.Sys(isa.SysYield)
	case "sleep":
		a := c.alloc()
		c.evalExpr(e.Args[0], a)
		c.enc.MovReg(0, a)
		c.free(a)
		c.enc.Sys(isa.SysSleep)
	case "print":
		a := c.alloc()
		c.evalExpr(e.Args[0], a)
		c.enc.MovReg(0, a)
		c.free(a)
		c.enc.Sys(isa.SysPrint)
	case "spawn":
		fn := e.Args[0].(*minic.Ident).Name
		a := c.alloc()
		c.evalExpr(e.Args[1], a)
		c.enc.MovReg(1, a)
		c.free(a)
		c.enc.MovLabel(0, "fn_"+fn)
		c.enc.Sys(isa.SysSpawn)
	case "rand":
		c.enc.Sys(isa.SysRand)
	case "recv":
		c.enc.Sys(isa.SysRecv)
	case "send":
		a := c.alloc()
		c.evalExpr(e.Args[0], a)
		c.enc.MovReg(0, a)
		c.free(a)
		c.enc.Sys(isa.SysSend)
	case "nanos":
		c.enc.Sys(isa.SysNanos)
	default:
		panic("compile: unknown builtin " + e.Name)
	}
	c.enc.MovReg(dst, 0)
	for i := len(saved) - 1; i >= 0; i-- {
		c.enc.Pop(saved[i])
	}
}
