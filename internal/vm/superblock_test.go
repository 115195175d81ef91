package vm

import (
	"fmt"
	"math/rand"
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
					if !in(m.fps[pcA], b) {
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
	if f := m.fps[o.pc]; f.Unbounded || (f.AbsLo <= g && g < f.AbsHi) {
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
