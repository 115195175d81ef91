// Package cfg builds per-function control-flow graphs over MiniC ASTs, at
// statement granularity. Branch and loop conditions get their own nodes
// because they access variables too; the annotator attaches begin_atomic /
// end_atomic annotations to nodes, and the compiler emits them before/after
// the node's code.
package cfg

import (
	"fmt"

	"kivati/internal/minic"
)

// NodeKind classifies CFG nodes.
type NodeKind int

const (
	KindEntry NodeKind = iota
	KindExit
	KindStmt // a simple statement (decl, assign, call, return)
	KindCond // the condition of an if or while
)

// Node is one CFG node.
type Node struct {
	ID    int
	Kind  NodeKind
	Stmt  minic.Stmt // for KindStmt
	Cond  minic.Expr // for KindCond
	Owner minic.Stmt // for KindCond: the If/While statement owning the condition
	Succs []*Node
	Preds []*Node
}

func (n *Node) String() string {
	switch n.Kind {
	case KindEntry:
		return fmt.Sprintf("n%d:entry", n.ID)
	case KindExit:
		return fmt.Sprintf("n%d:exit", n.ID)
	case KindCond:
		return fmt.Sprintf("n%d:cond(%s)", n.ID, minic.ExprString(n.Cond))
	default:
		return fmt.Sprintf("n%d:stmt", n.ID)
	}
}

// Graph is a function's CFG.
type Graph struct {
	Fn    *minic.FuncDecl
	Entry *Node
	Exit  *Node
	Nodes []*Node

	succIDs [][]int // SuccIDs, computed once by Build
}

// StmtNode returns the node for a given simple statement, or nil.
func (g *Graph) StmtNode(s minic.Stmt) *Node {
	for _, n := range g.Nodes {
		if n.Kind == KindStmt && n.Stmt == s {
			return n
		}
	}
	return nil
}

// Exprs calls f on the expressions the node evaluates, in evaluation
// order: a condition, or a simple statement's expressions (minic.StmtExprs).
func (n *Node) Exprs(f func(minic.Expr)) {
	switch n.Kind {
	case KindCond:
		f(n.Cond)
	case KindStmt:
		minic.StmtExprs(n.Stmt, f)
	}
}

// SuccIDs returns every node's successor IDs, indexed by node ID: the
// integer form of the graph that dataflow.SolveEdges runs over. Build
// computes it once, so every analysis of the graph shares one copy; callers
// must not modify it.
func (g *Graph) SuccIDs() [][]int { return g.succIDs }

func (g *Graph) buildSuccIDs() {
	n := 0
	for _, nd := range g.Nodes {
		n += len(nd.Succs)
	}
	ids := make([]int, 0, n)
	g.succIDs = make([][]int, len(g.Nodes))
	for i, nd := range g.Nodes {
		for _, s := range nd.Succs {
			ids = append(ids, s.ID)
		}
		g.succIDs[i] = ids[len(ids)-len(nd.Succs):]
	}
}

// Reach returns, indexed by node ID, the nodes reachable from `from` over
// Succs, or over Preds when back is set, without ever entering skip (nil
// for none). from itself is included unless it is skip.
func (g *Graph) Reach(from *Node, back bool, skip *Node) []bool {
	seen := make([]bool, len(g.Nodes))
	if from == skip {
		return seen
	}
	seen[from.ID] = true
	work := []*Node{from}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		next := n.Succs
		if back {
			next = n.Preds
		}
		for _, s := range next {
			if s != skip && !seen[s.ID] {
				seen[s.ID] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// Region returns the nodes on some first→second path, endpoints included,
// in ID order.
func (g *Graph) Region(first, second *Node) []*Node {
	fwd := g.Reach(first, false, nil)
	bwd := g.Reach(second, true, nil)
	var out []*Node
	for _, n := range g.Nodes {
		if fwd[n.ID] && bwd[n.ID] {
			out = append(out, n)
		}
	}
	return out
}

type builder struct {
	g *Graph
}

func (b *builder) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: kind}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func connect(from []*Node, to *Node) {
	for _, f := range from {
		f.Succs = append(f.Succs, to)
		to.Preds = append(to.Preds, f)
	}
}

// Build constructs the CFG of fn.
func Build(fn *minic.FuncDecl) *Graph {
	g := &Graph{Fn: fn}
	b := &builder{g: g}
	g.Entry = b.newNode(KindEntry)
	g.Exit = b.newNode(KindExit)
	out := b.block(fn.Body, []*Node{g.Entry})
	connect(out, g.Exit)
	g.buildSuccIDs()
	return g
}

// block threads the statements of blk after the dangling frontier `from`,
// returning the new frontier (nodes whose control falls through to whatever
// follows the block).
func (b *builder) block(blk *minic.Block, from []*Node) []*Node {
	for _, s := range blk.Stmts {
		from = b.stmt(s, from)
	}
	return from
}

func (b *builder) stmt(s minic.Stmt, from []*Node) []*Node {
	switch st := s.(type) {
	case *minic.IfStmt:
		c := b.newNode(KindCond)
		c.Cond = st.Cond
		c.Owner = st
		connect(from, c)
		thenOut := b.block(st.Then, []*Node{c})
		if st.Else != nil {
			elseOut := b.block(st.Else, []*Node{c})
			return append(thenOut, elseOut...)
		}
		return append(thenOut, c)
	case *minic.WhileStmt:
		c := b.newNode(KindCond)
		c.Cond = st.Cond
		c.Owner = st
		connect(from, c)
		bodyOut := b.block(st.Body, []*Node{c})
		connect(bodyOut, c)
		return []*Node{c}
	case *minic.ReturnStmt:
		n := b.newNode(KindStmt)
		n.Stmt = s
		connect(from, n)
		connect([]*Node{n}, b.g.Exit)
		return nil
	default:
		n := b.newNode(KindStmt)
		n.Stmt = s
		connect(from, n)
		return []*Node{n}
	}
}
