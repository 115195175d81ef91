package cfg

import (
	"fmt"
	"testing"

	"kivati/internal/minic"
)

func mustParse(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

func TestStraightLine(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { a = 1; a = 2; }")
	g := Build(prog.Funcs[0])
	// entry -> s1 -> s2 -> exit
	if len(g.Nodes) != 4 {
		t.Fatalf("got %d nodes, want 4", len(g.Nodes))
	}
	s1 := g.Entry.Succs[0]
	if s1.Kind != KindStmt {
		t.Fatalf("entry succ is %v", s1)
	}
	s2 := s1.Succs[0]
	if s2.Succs[0] != g.Exit {
		t.Error("s2 does not reach exit")
	}
	if len(g.Exit.Preds) != 1 {
		t.Errorf("exit preds = %d, want 1", len(g.Exit.Preds))
	}
}

func TestIfElse(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { if (a) { a = 1; } else { a = 2; } a = 3; }")
	g := Build(prog.Funcs[0])
	cond := g.Entry.Succs[0]
	if cond.Kind != KindCond {
		t.Fatalf("expected cond node, got %v", cond)
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %d, want 2", len(cond.Succs))
	}
	// Both branches converge on the final statement.
	join := cond.Succs[0].Succs[0]
	if cond.Succs[1].Succs[0] != join {
		t.Error("branches do not converge")
	}
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %d, want 2", len(join.Preds))
	}
}

func TestIfWithoutElse(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { if (a) { a = 1; } a = 3; }")
	g := Build(prog.Funcs[0])
	cond := g.Entry.Succs[0]
	// cond has two successors: then-branch and fall-through join.
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %d, want 2", len(cond.Succs))
	}
}

func TestWhileLoop(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { while (a) { a = a - 1; } }")
	g := Build(prog.Funcs[0])
	cond := g.Entry.Succs[0]
	if cond.Kind != KindCond {
		t.Fatalf("expected cond, got %v", cond)
	}
	body := cond.Succs[0]
	if body.Succs[0] != cond {
		t.Error("loop body does not feed back to cond")
	}
	// cond falls through to exit.
	found := false
	for _, s := range cond.Succs {
		if s == g.Exit {
			found = true
		}
	}
	if !found {
		t.Error("cond does not reach exit")
	}
	// Back edge means cond has two preds: entry and body.
	if len(cond.Preds) != 2 {
		t.Errorf("cond preds = %d, want 2", len(cond.Preds))
	}
}

func TestReturnTerminates(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { if (a) { return; } a = 1; }")
	g := Build(prog.Funcs[0])
	cond := g.Entry.Succs[0]
	var ret *Node
	for _, s := range cond.Succs {
		if st, ok := s.Stmt.(*minic.ReturnStmt); ok && st != nil {
			ret = s
		}
	}
	if ret == nil {
		t.Fatal("return node not found")
	}
	if len(ret.Succs) != 1 || ret.Succs[0] != g.Exit {
		t.Errorf("return succs = %v, want exit only", ret.Succs)
	}
	// Exit has two preds: the return and the trailing assignment.
	if len(g.Exit.Preds) != 2 {
		t.Errorf("exit preds = %d, want 2", len(g.Exit.Preds))
	}
}

func TestStmtNode(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { a = 1; }")
	g := Build(prog.Funcs[0])
	s := prog.Funcs[0].Body.Stmts[0]
	if n := g.StmtNode(s); n == nil || n.Stmt != s {
		t.Error("StmtNode did not find the statement")
	}
	if g.StmtNode(&minic.ReturnStmt{}) != nil {
		t.Error("StmtNode found a foreign statement")
	}
}

func TestCondOwner(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { while (a > 0) { a = 0; } }")
	g := Build(prog.Funcs[0])
	cond := g.Entry.Succs[0]
	if _, ok := cond.Owner.(*minic.WhileStmt); !ok {
		t.Errorf("cond owner = %T, want *WhileStmt", cond.Owner)
	}
}

func TestNestedLoops(t *testing.T) {
	prog := mustParse(t, `
int a;
void f() {
    while (a) {
        while (a > 1) {
            a = a - 1;
        }
        a = a - 2;
    }
}`)
	g := Build(prog.Funcs[0])
	// Every node must be reachable from entry.
	seen := map[int]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for _, s := range n.Succs {
			visit(s)
		}
	}
	visit(g.Entry)
	for _, n := range g.Nodes {
		if !seen[n.ID] {
			t.Errorf("node %v unreachable", n)
		}
	}
	// Pred/succ must be symmetric.
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			found := false
			for _, p := range s.Preds {
				if p == n {
					found = true
				}
			}
			if !found {
				t.Errorf("%v -> %v missing back pointer", n, s)
			}
		}
	}
}

// TestReachRegion: in a loop with a branch, Reach honours direction and
// skip, and Region is the nodes on some first→second path.
func TestReachRegion(t *testing.T) {
	prog := mustParse(t, "int a;\nvoid f() { a = 0; while (a) { if (a) { a = 1; } a = 2; } a = 3; }")
	g := Build(prog.Funcs[0])
	init := g.Entry.Succs[0]
	cond := init.Succs[0]
	ifCond := cond.Succs[0]
	one := ifCond.Succs[0]
	two := g.StmtNode(prog.Funcs[0].Body.Stmts[1].(*minic.WhileStmt).Body.Stmts[1])
	three := g.Exit.Preds[0]

	if r := g.Reach(one, false, nil); !r[cond.ID] || !r[three.ID] || r[init.ID] {
		t.Errorf("forward reach from a = 1: %v", r)
	}
	if r := g.Reach(two, true, nil); !r[init.ID] || !r[one.ID] || r[three.ID] {
		t.Errorf("backward reach from a = 2: %v", r)
	}
	// The loop condition dominates a = 3, so skipping it cuts a = 0 off.
	if g.Reach(init, false, cond)[three.ID] {
		t.Error("reach through a skipped node")
	}
	if r := g.Reach(cond, false, cond); r[cond.ID] {
		t.Error("reach from the skipped node itself")
	}
	var ids []int
	for _, n := range g.Region(one, three) {
		ids = append(ids, n.ID)
	}
	want := []int{cond.ID, ifCond.ID, one.ID, two.ID, three.ID}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("region a = 1 → a = 3 = %v, want %v", ids, want)
	}
	for id, ss := range g.SuccIDs() {
		for i, s := range ss {
			if g.Nodes[id].Succs[i].ID != s {
				t.Errorf("SuccIDs[%d][%d] = %d, want %d", id, i, s, g.Nodes[id].Succs[i].ID)
			}
		}
	}
}
