package analysis

import (
	"testing"

	"kivati/internal/cfg"
	"kivati/internal/minic"
)

func TestFuncEffectsDirect(t *testing.T) {
	prog := mustParse(t, `
int g;
int h;
void reader() {
    int t;
    t = g;
}
void writer() {
    h = 1;
}
void both() {
    g = g + h;
}`)
	eff := FuncEffects(prog, nil)
	if eff["reader"]["g"] != minic.AccRead {
		t.Errorf("reader effect on g = %d", eff["reader"]["g"])
	}
	if eff["writer"]["h"] != minic.AccWrite {
		t.Errorf("writer effect on h = %d", eff["writer"]["h"])
	}
	if eff["both"]["g"] != minic.AccRead|minic.AccWrite || eff["both"]["h"] != minic.AccRead {
		t.Errorf("both effects = %v", eff["both"])
	}
}

func TestFuncEffectsTransitive(t *testing.T) {
	prog := mustParse(t, `
int g;
void leaf() {
    g = g + 1;
}
void mid() {
    leaf();
}
void top() {
    mid();
}`)
	eff := FuncEffects(prog, nil)
	want := uint8(minic.AccRead | minic.AccWrite)
	for _, fn := range []string{"leaf", "mid", "top"} {
		if eff[fn]["g"] != want {
			t.Errorf("%s effect on g = %d, want %d", fn, eff[fn]["g"], want)
		}
	}
}

func TestFuncEffectsRecursion(t *testing.T) {
	prog := mustParse(t, `
int g;
void a(int n) {
    if (n > 0) {
        b(n - 1);
    }
    g = n;
}
void b(int n) {
    if (n > 0) {
        a(n - 1);
    }
}`)
	eff := FuncEffects(prog, nil)
	if eff["b"]["g"]&minic.AccWrite == 0 {
		t.Error("mutual recursion: b must inherit a's write to g")
	}
}

// TestInterProceduralPairSpansCall reproduces the headline capability: a
// caller-side check paired with a helper's update — a Figure 1 bug factored
// into a subroutine, invisible to the intra-procedural analysis.
func TestInterProceduralPairSpansCall(t *testing.T) {
	prog := mustParse(t, `
int shared_ptr;
void init() {
    shared_ptr = 42;
}
void update() {
    if (shared_ptr == 0) {
        init();
    }
}`)
	fn := prog.Func("update")
	g := cfg.Build(fn)
	lsv := LSV(prog, fn)
	admit := func(a Access) (Key, bool) { return a.Key, lsv[a.Key.Name] }

	// Intra-procedural: the caller sees only the read; no pair.
	intra := PairsAdmit(g, admit)
	for _, p := range intra {
		if p.Key.Name == "shared_ptr" {
			t.Fatalf("intra-procedural analysis should find no pair on shared_ptr, got %v", p)
		}
	}

	// Inter-procedural: the call carries init's write effect; the
	// check-then-act pair appears.
	effects := FuncEffects(prog, nil)
	inter := PairsExtra(g, admit, func(n *cfg.Node) []Access {
		return CallAccesses(prog, effects, n)
	})
	found := false
	for _, p := range inter {
		if p.Key.Name == "shared_ptr" && p.FirstType == minic.AccRead && p.SecondType == minic.AccWrite {
			found = true
		}
	}
	if !found {
		t.Error("inter-procedural analysis missed the R(check)-W(call) pair")
	}
}

func TestCallAccessesOrderDeterministic(t *testing.T) {
	prog := mustParse(t, `
int a;
int b;
void touch() {
    a = b;
    b = a;
}
void f() {
    touch();
}`)
	effects := FuncEffects(prog, nil)
	g := cfg.Build(prog.Func("f"))
	var callNode *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindStmt {
			if _, ok := n.Stmt.(*minic.ExprStmt); ok {
				callNode = n
			}
		}
	}
	first := accessString(CallAccesses(prog, effects, callNode))
	for i := 0; i < 5; i++ {
		if got := accessString(CallAccesses(prog, effects, callNode)); got != first {
			t.Fatalf("CallAccesses not deterministic: %q vs %q", got, first)
		}
	}
	// a and b each read+written: R then W per variable, sorted by name.
	if first != "R(a) W(a) R(b) W(b)" {
		t.Errorf("call accesses = %q", first)
	}
}

// TestCallAccessesEvaluationOrder: a call's arguments run before the call,
// so in h = wr(rd()) rd's read of g comes before wr's write, and the
// node's pair on g is R→W.
func TestCallAccessesEvaluationOrder(t *testing.T) {
	prog := mustParse(t, `
int g;
int h;
int rd() {
    return g;
}
int wr(int v) {
    g = v;
    return v;
}
void f() {
    h = wr(rd());
}`)
	effects := FuncEffects(prog, nil)
	g := cfg.Build(prog.Func("f"))
	assign := g.Entry.Succs[0]
	if got := accessString(CallAccesses(prog, effects, assign)); got != "R(g) W(g)" {
		t.Errorf("call accesses = %q, want rd's read before wr's write", got)
	}
	admit := func(a Access) (Key, bool) { return a.Key, a.Key.Name == "g" }
	pairs := PairsExtra(g, admit, func(n *cfg.Node) []Access {
		return CallAccesses(prog, effects, n)
	})
	if len(pairs) != 1 || pairs[0].FirstType != minic.AccRead || pairs[0].SecondType != minic.AccWrite {
		t.Errorf("pairs on g = %+v, want one R→W pair", pairs)
	}
}
