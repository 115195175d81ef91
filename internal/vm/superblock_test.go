package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/kernel"
)

// Superblock footprint soundness, modelled on compile's
// TestFootprintContainmentProperty: random code A; JMP L; filler; L: B;
// HLT, where A moves SP and FP the way pushes, pops, frame adjustments and
// prologues do, so the target part's stack offsets must be re-based through
// A. Every access retired on the A→B path must lie inside the superblock
// footprint of A's first op, evaluated at A's entry SP/FP, unless that
// footprint is Unbounded. Half the seeds place B before A, so the JMP is a
// backward edge as in a loop.
func TestFastPathSuperblockFootprint(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	stackOp := func(e *isa.Encoder, rng *rand.Rand) {
		sz := sizes[rng.Intn(4)]
		base := uint8(isa.RegSP)
		if rng.Intn(2) == 0 {
			base = isa.RegFP
		}
		if rng.Intn(16) == 0 {
			base = uint8(rng.Intn(14)) // a general base: Unbounded
		}
		gaddr := uint32(0x1000 + rng.Intn(0x4000))
		switch rng.Intn(6) {
		case 0:
			e.LoadReg(uint8(rng.Intn(14)), base, int32(rng.Intn(257)-128), sz)
		case 1:
			e.StoreReg(base, int32(rng.Intn(257)-128), uint8(rng.Intn(14)), sz)
		case 2:
			e.Load(uint8(rng.Intn(14)), gaddr, sz)
		case 3:
			e.Store(gaddr, uint8(rng.Intn(16)), sz)
		case 4:
			e.PushMem(gaddr, sz)
		case 5:
			e.Push(uint8(rng.Intn(16)))
		}
	}
	moveOp := func(e *isa.Encoder, rng *rand.Rand) {
		switch rng.Intn(4) {
		case 0:
			e.Push(uint8(rng.Intn(16)))
		case 1:
			e.Pop(uint8(rng.Intn(14)))
		case 2:
			e.AddImm(isa.RegSP, isa.RegSP, int32(8*(rng.Intn(17)-8)))
		case 3:
			e.MovReg(isa.RegFP, isa.RegSP)
		}
	}
	beyond := 0 // accesses only the target part of the footprint covers
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := isa.NewEncoder()
		nA, nB := 1+rng.Intn(10), 1+rng.Intn(10)
		emitA := func() {
			e.Label("A")
			for i := 0; i < nA; i++ {
				if rng.Intn(3) == 0 {
					stackOp(e, rng)
				} else {
					moveOp(e, rng)
				}
			}
			e.Jmp("L")
			for i := rng.Intn(4); i > 0; i-- {
				e.Store(0x7000, 0, 8) // filler: never executed
			}
		}
		emitB := func() {
			e.Label("L")
			for i := 0; i < nB; i++ {
				stackOp(e, rng)
			}
			e.Label("H")
			e.Hlt()
		}
		backward := seed%2 == 0
		if backward {
			e.Jmp("A")
			emitB()
			emitA()
		} else {
			emitA()
			emitB()
		}
		code, err := e.Finish()
		if err != nil {
			t.Fatalf("seed %d: Finish: %v", seed, err)
		}
		pcA, _ := e.LabelPC("A")
		pcL, _ := e.LabelPC("L")
		pcH, _ := e.LabelPC("H")
		bin := &compile.Binary{
			Code:     code,
			Funcs:    map[string]uint32{"main": pcA},
			Globals:  map[string]uint32{},
			InitMem:  map[uint32]int64{},
			SyncVars: map[string]bool{},
		}
		k := kernel.New(kernel.Config{Mode: kernel.Prevention, NumWatchpoints: 4}, nil, nil, nil)
		m, err := New(bin, k, Config{Cores: 1, Seed: seed, MaxTicks: 100_000})
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		fps, err := compile.Footprints(code)
		if err != nil {
			t.Fatalf("seed %d: Footprints: %v", seed, err)
		}
		idxA, idxL := m.opAt[pcA], m.opAt[pcL]
		sb := &m.sbs[idxA]
		if want := uint16(nA+1) + m.ops[idxL].line; sb.run != want || m.ops[idxL].line != uint16(nB) {
			t.Fatalf("seed %d: run %d (target line %d), want %d", seed, sb.run, m.ops[idxL].line, want)
		}
		f := sb.fp
		if f.Unbounded {
			continue // every access is trivially covered
		}

		tid, err := m.Start("main", 0)
		if err != nil {
			t.Fatal(err)
		}
		th := m.Thread(tid)
		for i := 0; i < 14; i++ {
			th.Regs[i] = int64(rng.Intn(1 << 16))
		}
		th.Regs[isa.RegSP] = int64(0x100000 + 8*rng.Intn(0x10000))
		th.Regs[isa.RegFP] = int64(0x100000 + 8*rng.Intn(0x10000))
		entrySP, entryFP := th.Regs[isa.RegSP], th.Regs[isa.RegFP]
		in := func(f isa.Footprint, b int64) bool {
			return (f.AbsHi > f.AbsLo && b >= int64(f.AbsLo) && b < int64(f.AbsHi)) ||
				(f.SPHi > f.SPLo && b >= entrySP+f.SPLo && b < entrySP+f.SPHi) ||
				(f.FPHi > f.FPLo && b >= entryFP+f.FPLo && b < entryFP+f.FPHi)
		}
		c := m.cores[0]
		c.Cur = th
		for steps := 0; th.PC != pcH; steps++ {
			if steps > nA+nB+1 {
				t.Fatalf("seed %d: path A→B did not reach HLT (pc %#x)", seed, th.PC)
			}
			m.step(c)
			if th.Fault != "" {
				t.Fatalf("seed %d: fault %s", seed, th.Fault)
			}
			for _, a := range c.accs[:c.nacc] {
				for b := int64(a.addr); b < int64(a.addr)+int64(a.sz); b++ {
					if !in(f, b) {
						t.Fatalf("seed %d: access byte %#x outside superblock footprint %+v (entry SP %#x FP %#x)",
							seed, b, f, entrySP, entryFP)
					}
					if !in(fps[pcA], b) {
						beyond++
					}
				}
			}
		}
	}
	if beyond == 0 {
		t.Fatal("no access fell outside the line footprint: the target part was never exercised")
	}
}

// The bug class a superblock can introduce: a body-only footprint that
// misses the loop header's access. The reader's loop header (the body's JMP
// target) reads g, which the writer's atomic regions watch, and its body
// does not, and the header's first op is the read, so a checked superblock
// stops at the target's first op. Under prevention, at 1 and 2 cores and
// with after- and before-access traps, the fast tier must match the
// stepper bit for bit and traps must fire; and the body's superblock,
// entered with g armed, must be decided checked.
func TestFastPathSuperblockArmedTarget(t *testing.T) {
	src := `
int g;
int stop;
void writer(int n) {
    int i;
    i = 0;
    while (i < n) {
        g = 1;
        i = i + 1;
        g = 0;
    }
    stop = 1;
}
void main() {
    int k;
    spawn(writer, 400);
    k = 0;
    while (g + stop < 1) {
        k = k + 1;
    }
    print(k);
}`
	for _, cores := range []int{1, 2} {
		for _, before := range []bool{false, true} {
			name := fmt.Sprintf("cores=%d trapBefore=%v", cores, before)
			o := defaultRunOpts()
			o.mcfg.Cores = cores
			o.kcfg.TrapBefore = before
			res := assertDispatchEqual(t, name, src, o)
			if res.Stats.Traps == 0 || res.Demotions.WouldTrap == 0 {
				t.Errorf("%s: %d traps, %d fast-tier would-trap stops; the watched header read never hit",
					name, res.Stats.Traps, res.Demotions.WouldTrap)
			}
		}
	}

	// The decision itself: put main at the first op of a line whose JMP
	// target starts with the read of g while the line does not read g, arm
	// g, and enter the block.
	m := newDispatch(t, src, defaultRunOpts(), DispatchFast)
	g := m.Bin.Globals["g"]
	readsG := func(o *fastOp) bool { return (o.kind == okLD || o.kind == okLD8) && o.addr == g }
	body := uint32(0)
	for i := uint32(1); i < uint32(len(m.ops)) && body == 0; i++ {
		o := &m.ops[i]
		if m.sbs[i].run == o.line || !readsG(&m.ops[m.ops[i+uint32(o.line)-1].tidx]) {
			continue
		}
		body = i
		for j := range o.line {
			if readsG(&m.ops[i+uint32(j)]) {
				body = 0
			}
		}
	}
	if body == 0 {
		t.Fatal("no loop body whose superblock reaches a header that starts with the read of g")
	}
	o := &m.ops[body]
	if f := m.Bin.Footprints[o.pc]; f.Unbounded || (f.AbsLo <= g && g < f.AbsHi) {
		t.Fatalf("the body's line footprint %+v already covers g; the test needs a body that does not", f)
	}
	c, th := m.cores[0], m.Thread(0)
	th.PC = o.pc
	c.Cur = th
	c.WP.Set(0, hw.Watchpoint{Addr: g, Size: 8, Types: hw.Read | hw.Write, Armed: true, Owner: 1, LocalOf: -1})
	if !m.enterBlock(c) {
		t.Fatal("body op not fast-enterable")
	}
	if run := m.sbs[body].run; !c.fastChecked || c.fastLeft != run {
		t.Errorf("superblock decided checked=%v over %d ops, want checked over %d (line %d)",
			c.fastChecked, c.fastLeft, run, o.line)
	}
}

// frameMover reports, by dispatch kind alone, whether op o moves SP or FP:
// an implicit SP update, or an explicit write of either register. It is the
// test's own statement of the loop superblock's frame condition.
func frameMover(o *fastOp) bool {
	switch o.kind {
	case okPUSH, okPOP, okPUSHM, okCALL, okCALLM, okRET:
		return true
	case okMOVI, okMOVR, okADD, okSUB, okMUL, okAND, okOR, okXOR, okSHL, okSHR,
		okCEQ, okCNE, okCLT, okCLE, okCGT, okCGE, okDIV, okMOD, okADDI,
		okLD, okLD8, okLDR, okLDR8:
		return o.rd == isa.RegSP || o.rd == isa.RegFP
	}
	return false
}

// wantLoop derives op i's loop flag from the definition: the superblock is
// not saturated, its closing op is a JZ or JNZ that falls through or jumps
// back to op i, and none of its ops moves SP or FP.
func wantLoop(m *Machine, i uint32) bool {
	o, sb := &m.ops[i], &m.sbs[i]
	if o.line == 0 || sb.run == maxLine {
		return false
	}
	parts := [][2]uint32{{i, i + uint32(o.line)}}
	if sb.run > o.line {
		tgt := m.ops[i+uint32(o.line)-1].tidx
		parts = append(parts, [2]uint32{tgt, tgt + uint32(m.ops[tgt].line)})
	}
	for _, p := range parts {
		for j := p[0]; j < p[1]; j++ {
			if frameMover(&m.ops[j]) {
				return false
			}
		}
	}
	e := &m.ops[parts[len(parts)-1][1]-1]
	return (e.kind == okJZ || e.kind == okJNZ) && (e.next == o.pc || e.addr == o.pc)
}

// The loop flag, both ways. On a compiled computeFn-style loop (see
// internal/workloads) the body's superblock — body, JMP, header, JZ — is a
// loop, and the flag of every op matches the definition. On hand-assembled
// loops it is set for a plain body and for a one-line JNZ loop, and clear
// when the body pushes, pops, calls, or writes SP or FP, when the closing
// branch leads elsewhere, and when the superblock saturates.
func TestFastPathLoopSuperblockTable(t *testing.T) {
	src := `
int out;
int digest(int v) {
    int x;
    int j;
    x = v + 10007;
    j = 0;
    while (j < 300) {
        x = x * 31 + j;
        x = x ^ (x >> 7);
        j = j + 1;
    }
    return x;
}
void main() {
    out = digest(5);
}`
	m := newDispatch(t, src, defaultRunOpts(), DispatchFast)
	loops := 0
	for i := uint32(1); i < uint32(len(m.ops)); i++ {
		if got, want := m.sbs[i].loop, wantLoop(m, i); got != want {
			t.Errorf("op %d at %#x: loop=%v, want %v", i, m.ops[i].pc, got, want)
		}
		if m.sbs[i].loop {
			loops++
			if m.sbs[i].run == m.ops[i].line {
				t.Errorf("op %d: the compiled loop is flagged without its JMP-closed superblock", i)
			}
		}
	}
	if loops != 1 {
		t.Fatalf("%d loop superblocks in digest, want 1 (the while body)", loops)
	}

	const r1, r2, r3 = 1, 2, 3
	plain := func(e *isa.Encoder) {
		e.ALU(isa.OpADD, r2, r2, r1)
		e.Store(0x2000, r2, 8)
		e.LoadReg(r3, isa.RegFP, -8, 8)
	}
	cases := []struct {
		name string
		body func(e *isa.Encoder)
		// layout emits the loop around body from label top on; nil is
		// the MiniC shape top: cond; JZ exit; body: ...; JMP top.
		layout func(e *isa.Encoder, body func(e *isa.Encoder))
		want   bool
	}{
		{name: "plain", body: plain, want: true},
		{name: "push", body: func(e *isa.Encoder) { plain(e); e.Push(r2) }},
		{name: "pop", body: func(e *isa.Encoder) { e.Pop(r3); plain(e) }},
		{name: "pushm", body: func(e *isa.Encoder) { e.PushMem(0x2000, 8); plain(e) }},
		{name: "call", body: func(e *isa.Encoder) { plain(e); e.Call("f") }},
		{name: "writes FP", body: func(e *isa.Encoder) { plain(e); e.MovReg(isa.RegFP, r2) }},
		{name: "writes SP", body: func(e *isa.Encoder) { e.AddImm(isa.RegSP, isa.RegSP, -16); plain(e) }},
		{name: "loads SP", body: func(e *isa.Encoder) { plain(e); e.Load(isa.RegSP, 0x2000, 8) }},
		{name: "branch elsewhere", body: plain, layout: func(e *isa.Encoder, body func(e *isa.Encoder)) {
			e.Label("top")
			e.AddImm(r1, r1, -1)
			e.Jz(r1, "exit")
			e.Nop() // the JZ falls through here, not to the body
			e.Label("body")
			body(e)
			e.Jmp("top")
		}},
		{name: "one-line JNZ", body: plain, want: true, layout: func(e *isa.Encoder, body func(e *isa.Encoder)) {
			e.Label("top")
			e.Label("body")
			body(e)
			e.AddImm(r1, r1, -1)
			e.Jnz(r1, "body")
		}},
		{name: "saturated", layout: func(e *isa.Encoder, _ func(e *isa.Encoder)) {
			e.Label("top")
			for range 30000 {
				e.Nop()
			}
			e.AddImm(r1, r1, -1)
			e.Jz(r1, "exit")
			e.Label("body")
			for range 40000 {
				e.Nop()
			}
			e.Jmp("top")
		}},
	}
	for _, tc := range cases {
		e := isa.NewEncoder()
		e.Label("main")
		e.MovImm(r1, 10)
		e.Jmp("top")
		if tc.layout != nil {
			tc.layout(e, tc.body)
		} else {
			e.Label("top")
			e.AddImm(r1, r1, -1)
			e.Jz(r1, "exit")
			e.Label("body")
			tc.body(e)
			e.Jmp("top")
		}
		e.Label("exit")
		e.Hlt()
		e.Label("f")
		e.Ret()
		code, err := e.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", tc.name, err)
		}
		pcMain, _ := e.LabelPC("main")
		pcBody, _ := e.LabelPC("body")
		bin := &compile.Binary{
			Code:     code,
			Funcs:    map[string]uint32{"main": pcMain},
			Globals:  map[string]uint32{},
			InitMem:  map[uint32]int64{},
			SyncVars: map[string]bool{},
		}
		k := kernel.New(kernel.Config{Mode: kernel.Prevention, NumWatchpoints: 4}, nil, nil, nil)
		m, err := New(bin, k, Config{Cores: 1, Seed: 1, MaxTicks: 100_000})
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		i := m.opAt[pcBody]
		if got := m.sbs[i].loop; got != tc.want || got != wantLoop(m, i) {
			t.Errorf("%s: loop=%v, want %v (run %d, line %d)", tc.name, got, tc.want, m.sbs[i].run, m.ops[i].line)
		}
		if tc.name == "saturated" && m.sbs[i].run != maxLine {
			t.Errorf("saturated: run %d, want %d", m.sbs[i].run, maxLine)
		}
	}
}

// loopSrc's main spins in a loop whose header reads g, which the writer's
// atomic regions watch, and which no region of main's brackets: the body's
// superblock (body, JMP, header, JZ) is a loop, decided checked while g is
// armed and unchecked while it is not, and carried either way.
const loopSrc = `
int g;
void writer(int n) {
    int i;
    i = 0;
    while (i < n) {
        g = 1;
        i = i + 1;
        g = 0;
    }
}
void main() {
    int j;
    spawn(writer, 300);
    j = 0;
    while (g + j < 2000) {
        j = j + 1;
    }
    print(j);
}`

// loopQuantum leaves a window of five instructions after the timer
// interrupt's cost, shorter than one iteration of loopSrc's loop, so
// windows end inside carried decisions and the next window decides afresh.
const loopQuantum = 20

// Carried loop decisions. Step and Fast must agree bit for bit at 1, 2 and
// 3 cores under trap-after and TrapBefore, with windows shorter than an
// iteration; one execRun call must retire several iterations of a loop
// decided unchecked, or checked under a watchpoint the loop cannot hit, and
// leave the decision renewed, while a checked decision under one it can hit
// stops before the access; and a run restored from a snapshot taken while
// a core still holds a carried decision must equal a fresh run.
func TestFastPathLoopDecision(t *testing.T) {
	for _, cores := range []int{1, 2, 3} {
		for _, before := range []bool{false, true} {
			name := fmt.Sprintf("cores=%d trapBefore=%v", cores, before)
			o := defaultRunOpts()
			o.mcfg.Cores = cores
			o.mcfg.Costs = DefaultCosts()
			o.mcfg.Costs.Quantum = loopQuantum
			o.kcfg.TrapBefore = before
			res := assertDispatchEqual(t, name, loopSrc, o)
			if res.Stats.Traps == 0 {
				t.Errorf("%s: no traps", name)
			}
		}
	}

	// Two cores. Main spins in a loop over its own stack; the worker runs
	// short loops between prints, and each print's kernel entry ends the
	// window inside main's carried decision. The window after the print's
	// cost decides main's loop afresh, with both cores active, so the two
	// cores chunk again.
	spin := `
void worker(int n) {
    int i;
    int j;
    j = 0;
    while (j < n) {
        i = 0;
        while (i < 40) {
            i = i + 1;
        }
        print(j);
        j = j + 1;
    }
}
void main() {
    int k;
    spawn(worker, 40);
    k = 0;
    while (k < 1500) {
        k = k + 1;
    }
    print(k);
}`
	so := defaultRunOpts()
	so.mcfg.Costs = DefaultCosts()
	so.mcfg.Costs.Quantum = 100_000 // no timer preemption re-decides main's loop
	res := assertDispatchEqual(t, "spin", spin, so)
	if 2*res.ChunkedInstructions < res.FastInstructions {
		t.Errorf("spin: %d of %d fast instructions chunked; want carried decisions that chunk",
			res.ChunkedInstructions, res.FastInstructions)
	}

	// One call, many iterations: main's loop entered at its body with
	// nothing armed, against the stepper over as many instructions.
	o := defaultRunOpts()
	o.mcfg.Cores = 1
	fast := newDispatch(t, loopSrc, o, DispatchFast)
	step := newDispatch(t, loopSrc, o, DispatchStep)
	body := uint32(0)
	for i := uint32(1); i < uint32(len(fast.ops)); i++ {
		if fast.sbs[i].loop {
			body = i // the last loop in address order: main's
		}
	}
	if body == 0 {
		t.Fatal("no loop superblock")
	}
	run := uint64(fast.sbs[body].run)
	c := fast.cores[0]
	for _, m := range []*Machine{fast, step} {
		th := m.Thread(0)
		th.PC = m.ops[body].pc
		m.cores[0].Cur = th
	}
	th := fast.Thread(0)
	if !fast.enterBlock(c) || c.fastLoop != body || c.fastChecked {
		t.Fatalf("enterBlock: loop %d checked %v, want %d unchecked", c.fastLoop, c.fastChecked, body)
	}
	if got, ok := fast.execRun(c, 3*run); got != 3*run || !ok {
		t.Fatalf("execRun retired %d (ok %v), want three iterations, %d", got, ok, 3*run)
	}
	if c.fastLeft != uint16(run) || c.fastIdx != body || th.PC != fast.ops[body].pc {
		t.Errorf("after three iterations: left %d idx %d pc %#x, want a renewed decision at the body",
			c.fastLeft, c.fastIdx, th.PC)
	}
	ths := step.Thread(0)
	for range 3 * run {
		step.step(step.cores[0])
	}
	if ths.Regs != th.Regs || ths.PC != th.PC || ths.LastInstr != th.LastInstr || step.MemHash() != fast.MemHash() {
		t.Errorf("three carried iterations differ from the stepper: pc %#x vs %#x", th.PC, ths.PC)
	}

	// The same loop with g armed on both machines, for writes only and then
	// for reads. Its header reads g, so either decision is checked and
	// carried; a write-only watchpoint lets three iterations retire and
	// leaves the decision renewed, a read watchpoint stops the run before
	// the header's read. Either way the fast tier must match the stepper
	// over as many instructions.
	g := fast.Bin.Globals["g"]
	for _, typ := range []hw.AccessType{hw.Write, hw.Read} {
		for _, m := range []*Machine{fast, step} {
			m.cores[0].WP.Set(0, hw.Watchpoint{Addr: g, Size: 8, Types: typ, Armed: true, Owner: 1, LocalOf: -1})
		}
		c.dropBlock()
		if !fast.enterBlock(c) || !c.fastChecked || c.fastLoop != body {
			t.Fatalf("g armed %v: checked %v loop %d, want a checked decision carried at %d", typ, c.fastChecked, c.fastLoop, body)
		}
		got, ok := fast.execRun(c, 3*run)
		switch {
		case typ == hw.Write && (got != 3*run || !ok || c.fastLeft != uint16(run) || c.fastLoop != body || th.PC != fast.ops[body].pc):
			t.Errorf("g armed W: retired %d (ok %v), left %d loop %d pc %#x; want three iterations and a renewed decision",
				got, ok, c.fastLeft, c.fastLoop, th.PC)
		case typ == hw.Read && (got == 0 || got >= run || ok):
			t.Errorf("g armed R: retired %d (ok %v); want a stop inside the first iteration", got, ok)
		}
		for range got {
			step.step(step.cores[0])
		}
		if ths.Regs != th.Regs || ths.PC != th.PC || ths.LastInstr != th.LastInstr || step.MemHash() != fast.MemHash() {
			t.Errorf("g armed %v: %d checked instructions differ from the stepper: pc %#x vs %#x", typ, got, th.PC, ths.PC)
		}
	}

	// A loop that moves SP is decided afresh at every back edge, against
	// the SP of that iteration: the third push into a watched stack slot
	// must stop before it commits, although the first two iterations'
	// footprints miss the slot.
	e := isa.NewEncoder()
	e.Label("main")
	e.MovImm(1, 10)
	e.Label("top")
	e.AddImm(1, 1, -1)
	e.Jz(1, "exit")
	e.Push(2)
	e.Jmp("top")
	e.Label("exit")
	e.Hlt()
	code, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	pcMain, _ := e.LabelPC("main")
	pushes := &compile.Binary{Code: code, Funcs: map[string]uint32{"main": pcMain},
		Globals: map[string]uint32{}, InitMem: map[uint32]int64{}, SyncVars: map[string]bool{}}
	pm, err := New(pushes, kernel.New(kernel.Config{Mode: kernel.Prevention, NumWatchpoints: 4}, nil, nil, nil),
		Config{Cores: 1, Seed: 1, MaxTicks: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	tid, err := pm.Start("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, pc0 := pm.Thread(tid), pm.cores[0]
	pc0.Cur = pt
	sp0 := uint32(pt.Regs[isa.RegSP])
	pc0.WP.Set(0, hw.Watchpoint{Addr: sp0 - 24, Size: 8, Types: hw.Write, Armed: true, Owner: 1, LocalOf: -1})
	pm.fastCores = append(pm.fastCores[:0], pc0)
	pm.runWindow(pm.fastCores, 1000)
	if sp := uint32(pt.Regs[isa.RegSP]); sp != sp0-16 || pm.tel.Demotions.WouldTrap != 1 {
		t.Errorf("pushing loop: SP %#x after the window (entry %#x), %d would-trap stops; want a stop before the third push",
			sp, sp0, pm.tel.Demotions.WouldTrap)
	}

	// A snapshot taken while the core still holds a carried decision from
	// the last window, which the snapshot does not capture. The policy
	// re-picks the preempted thread, the run queue's tail, at two
	// decisions in three.
	bin := buildSrc(t, loopSrc, compileOptsAnnotated())
	newMachine := func() *Machine {
		k := kernel.New(defaultRunOpts().kcfg, nil, nil, nil)
		costs := DefaultCosts()
		costs.Quantum = loopQuantum
		m, err := New(bin, k, Config{Cores: 1, Seed: 1, MaxTicks: 5_000_000, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Start("main", 0); err != nil {
			t.Fatal(err)
		}
		return m
	}
	var snap *Snapshot
	policy := func(m *Machine, capture bool) PolicyFunc {
		return func(p SchedPoint) int {
			c := m.cores[p.Core]
			if capture && snap == nil && c.fastLoop != 0 && c.fastLeft > 0 {
				s, err := m.Snapshot()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				snap = s
			}
			if p.Seq%3 != 0 {
				return len(p.Runnable) - 1
			}
			return 0
		}
	}
	fresh := newMachine()
	fresh.SetPolicy(policy(fresh, false))
	want := fresh.Run()
	m := newMachine()
	m.SetPolicy(policy(m, true))
	m.Run()
	if snap == nil {
		t.Fatal("no decision point found a carried loop decision open")
	}
	m.Restore(snap)
	got := m.Run()
	if got.Reason != want.Reason || got.Ticks != want.Ticks || !reflect.DeepEqual(got.Output, want.Output) ||
		!reflect.DeepEqual(got.Stats, want.Stats) || got.Telemetry != want.Telemetry || m.MemHash() != fresh.MemHash() {
		t.Errorf("restored run differs from a fresh run:\n got  %s %d %v %+v\n want %s %d %v %+v",
			got.Reason, got.Ticks, got.Output, got.Telemetry, want.Reason, want.Ticks, want.Output, want.Telemetry)
	}
}
