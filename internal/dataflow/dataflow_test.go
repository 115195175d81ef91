package dataflow

import (
	"testing"

	"kivati/internal/cfg"
	"kivati/internal/minic"
)

// bitset is a tiny lattice for testing the solver: sets of statement IDs
// that have executed on some path (a reachability analysis).
type bitset map[int]bool

func (s bitset) Equal(other Facts) bool {
	o := other.(bitset)
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

func (s bitset) union(o bitset) bitset {
	out := bitset{}
	for k := range s {
		out[k] = true
	}
	for k := range o {
		out[k] = true
	}
	return out
}

// seenAnalysis accumulates the IDs of all nodes on any path to a point.
type seenAnalysis struct {
	succs [][]int
	entry int
}

func (seenAnalysis) Bottom() Facts                  { return bitset{} }
func (seenAnalysis) Entry(int) Facts                { return bitset{} }
func (seenAnalysis) Join(a, b Facts) Facts          { return a.(bitset).union(b.(bitset)) }
func (seenAnalysis) Widen(_, new Facts) Facts       { return new }
func (seenAnalysis) transfer(n int, in Facts) Facts { return in.(bitset).union(bitset{n: true}) }
func (a seenAnalysis) Flow(n int, in Facts) []Facts {
	out := make([]Facts, len(a.succs[n]))
	for i := range out {
		out[i] = a.transfer(n, in)
	}
	return out
}

func buildCFG(t *testing.T, src string) (*cfg.Graph, seenAnalysis) {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog.Funcs[0])
	return g, seenAnalysis{succs: g.SuccIDs(), entry: g.Entry.ID}
}

func (a seenAnalysis) solve() []Facts {
	return SolveEdges(a.succs, []int{a.entry}, nil, a)
}

func TestSolveStraightLine(t *testing.T) {
	g, a := buildCFG(t, "int a;\nvoid f() { a = 1; a = 2; a = 3; }")
	in := a.solve()
	exit := in[g.Exit.ID].(bitset)
	// Exit must have seen every node but itself.
	for _, n := range g.Nodes {
		if n != g.Exit && !exit[n.ID] {
			t.Errorf("exit facts missing node %v", n)
		}
	}
	// The first statement's IN contains only the entry.
	s1 := g.Entry.Succs[0]
	if s := in[s1.ID].(bitset); len(s) != 1 || !s[g.Entry.ID] {
		t.Errorf("s1 IN = %v", s)
	}
}

func TestSolveBranches(t *testing.T) {
	g, a := buildCFG(t, "int a;\nvoid f() { if (a) { a = 1; } else { a = 2; } a = 3; }")
	in := a.solve()
	// The join statement's IN includes both branch statements.
	var joinNode *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindStmt {
			if as, ok := n.Stmt.(*minic.AssignStmt); ok {
				if lit, ok := as.RHS.(*minic.IntLit); ok && lit.V == 3 {
					joinNode = n
				}
			}
		}
	}
	if joinNode == nil {
		t.Fatal("join node not found")
	}
	s := in[joinNode.ID].(bitset)
	branchCount := 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindStmt && n != joinNode && s[n.ID] {
			branchCount++
		}
	}
	if branchCount != 2 {
		t.Errorf("join IN saw %d branch statements, want 2", branchCount)
	}
}

func TestSolveLoopFixpoint(t *testing.T) {
	g, a := buildCFG(t, "int a;\nvoid f() { while (a) { a = a - 1; } }")
	in := a.solve()
	// The loop condition's IN must include the body (via the back edge).
	cond := g.Entry.Succs[0]
	body := cond.Succs[0]
	if !in[cond.ID].(bitset)[body.ID] {
		t.Errorf("cond IN missing loop body: %v", in[cond.ID])
	}
	// And the solution is a fixpoint: every node's IN is the join of its
	// predecessors' transferred facts.
	for _, n := range g.Nodes {
		want := bitset{}
		for _, p := range n.Preds {
			want = want.union(a.transfer(p.ID, in[p.ID]).(bitset))
		}
		if !want.Equal(in[n.ID]) {
			t.Errorf("node %v: IN %v, want %v", n, in[n.ID], want)
		}
	}
}

// TestSolveUnreachable: code after a return is never flowed from the
// entry alone; listing every node as an entry flows it too.
func TestSolveUnreachable(t *testing.T) {
	g, a := buildCFG(t, "int a;\nvoid f() { a = 1; return; a = 2; a = 3; }")
	last := g.Exit.Preds[len(g.Exit.Preds)-1] // a = 3
	dead := last.Preds[0]                     // a = 2
	if in := a.solve(); len(in[last.ID].(bitset)) != 0 {
		t.Errorf("unreachable node got IN %v, want Bottom", in[last.ID])
	}
	all := make([]int, len(g.Nodes))
	for i := range all {
		all[i] = i
	}
	in := SolveEdges(a.succs, all, nil, a)
	if s := in[last.ID].(bitset); len(s) != 1 || !s[dead.ID] {
		t.Errorf("dead node IN with every node an entry = %v, want {%d}", s, dead.ID)
	}
}

// counter is an infinite-height lattice: an upper bound on a loop counter,
// -1 for unreachable and maxBound for unbounded.
type counter int

const maxBound counter = 1 << 30

func (c counter) Equal(o Facts) bool { return c == o.(counter) }

// countAnalysis increments the counter at node 2 of the loop that the
// three-node graph 0 → 1 ⇄ 2 forms.
type countAnalysis struct{}

func (countAnalysis) Bottom() Facts   { return counter(-1) }
func (countAnalysis) Entry(int) Facts { return counter(0) }
func (countAnalysis) Join(a, b Facts) Facts {
	return max(a.(counter), b.(counter))
}
func (countAnalysis) Widen(old, new Facts) Facts {
	if new.(counter) > old.(counter) {
		return maxBound
	}
	return new
}
func (countAnalysis) Flow(n int, in Facts) []Facts {
	c := in.(counter)
	if n == 2 && c >= 0 && c < maxBound {
		c++
	}
	return []Facts{c}
}

// TestSolveWidening: a growing chain on a loop terminates at the loop head
// through Widen, and through the visit-count failsafe when no node is
// designated.
func TestSolveWidening(t *testing.T) {
	succs := [][]int{{1}, {2}, {1}}
	widened := SolveEdges(succs, []int{0}, func(n int) bool { return n == 1 }, countAnalysis{})
	if widened[1] != maxBound {
		t.Errorf("loop head = %v, want widened to %v", widened[1], maxBound)
	}
	failsafe := SolveEdges(succs, []int{0}, nil, countAnalysis{})
	if failsafe[1] != maxBound {
		t.Errorf("loop head without widening points = %v, want %v by the failsafe", failsafe[1], maxBound)
	}
}
