package analysis

import (
	"math/bits"
	"sort"

	"kivati/internal/cfg"
	"kivati/internal/dataflow"
	"kivati/internal/minic"
)

// Pair is one consecutive pair of accesses to the same shared variable — the
// definition of an atomic region (§2.2). First and Second identify the CFG
// nodes and the access indices within those nodes' ordered access lists.
// FirstNode may equal SecondNode (e.g. `s = s + 1`), and, via loop back
// edges, may lexically follow SecondNode.
type Pair struct {
	Key         Key
	FirstNode   *cfg.Node
	FirstIdx    int
	SecondNode  *cfg.Node
	SecondIdx   int
	FirstType   uint8 // minic.AccRead / minic.AccWrite
	SecondType  uint8
	FirstLvalue minic.Expr // location expression of the first access
}

// accessSet is the lattice element: the set of accesses that reach a
// program point, as a bitset over the function's admitted accesses (see
// pairAnalysis.refs). A nil set is empty. Join is union, transfer is
// gen-only — the paper's analysis pairs a shared access with *all*
// preceding accesses, not just the closest (Figure 4 pairs lines 2–8
// despite the intervening access on line 4). Sets are never mutated once
// built, so Join and Flow may return an operand unchanged.
type accessSet []uint64

func (s accessSet) word(i int) uint64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// covers reports whether s ⊇ o.
func (s accessSet) covers(o accessSet) bool {
	for i, w := range o {
		if w&^s.word(i) != 0 {
			return false
		}
	}
	return true
}

func (s accessSet) Equal(other dataflow.Facts) bool {
	o := other.(accessSet)
	return s.covers(o) && o.covers(s)
}

// union returns s ∪ o, or whichever operand already covers the other.
func (s accessSet) union(o accessSet) accessSet {
	if s.covers(o) {
		return s
	}
	if o.covers(s) {
		return o
	}
	out := make(accessSet, max(len(s), len(o)))
	for i := range out {
		out[i] = s.word(i) | o.word(i)
	}
	return out
}

// accessRef names one admitted access: a node and its index into the
// node's access list.
type accessRef struct{ node, idx int }

// pairAnalysis is the reaching-access problem as a dataflow.SolveEdges
// instance: every edge out of a node carries the node's input set plus its
// own accesses. The lattice is finite, so Widen keeps the new fact.
type pairAnalysis struct {
	accesses [][]Access  // node ID -> ordered shared accesses
	refs     []accessRef // bit number -> access
	gen      []accessSet // node ID -> the node's own accesses
	succs    [][]int
	scratch  []dataflow.Facts
}

func (*pairAnalysis) Bottom() dataflow.Facts                     { return accessSet(nil) }
func (*pairAnalysis) Entry(int) dataflow.Facts                   { return accessSet(nil) }
func (*pairAnalysis) Widen(_, new dataflow.Facts) dataflow.Facts { return new }

func (*pairAnalysis) Join(a, b dataflow.Facts) dataflow.Facts {
	return a.(accessSet).union(b.(accessSet))
}

func (p *pairAnalysis) Flow(n int, in dataflow.Facts) []dataflow.Facts {
	var out dataflow.Facts = in.(accessSet).union(p.gen[n])
	p.scratch = p.scratch[:0]
	for range p.succs[n] {
		p.scratch = append(p.scratch, out)
	}
	return p.scratch
}

// keyLess orders keys as their String forms do, without building them.
func keyLess(a, b Key) bool {
	if a.Deref == b.Deref {
		return a.Name < b.Name
	}
	if a.Deref { // "*"+a.Name against b.Name
		if b.Name == "" || b.Name[0] != '*' {
			return b.Name != "" && '*' < b.Name[0]
		}
		return a.Name < b.Name[1:]
	}
	// a.Name against "*"+b.Name
	if a.Name == "" || a.Name[0] != '*' {
		return a.Name == "" || a.Name[0] < '*'
	}
	return a.Name[1:] < b.Name
}

// posBefore reports whether a lexically precedes b.
func posBefore(a, b minic.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// Pairs runs the reaching-access analysis over g and returns every
// consecutive access pair to a shared variable, deterministically ordered.
// Only variables in the LSV participate.
func Pairs(g *cfg.Graph, lsv map[string]bool) []Pair {
	return PairsAdmit(g, func(a Access) (Key, bool) {
		return a.Key, lsv[a.Key.Name]
	})
}

// PairsAdmit is the generalized pairing analysis: admit decides, per access,
// whether it participates and under which key. The precise-analysis mode
// (§3.5 extension) uses it to drop non-escaping locals and to fold aliased
// dereferences onto their pointees.
func PairsAdmit(g *cfg.Graph, admit func(Access) (Key, bool)) []Pair {
	return PairsExtra(g, admit, nil)
}

// PairsExtra additionally lets the caller contribute pseudo-accesses per
// node — the inter-procedural extension models a call as a compound access
// to the globals the callee transitively touches. Extra accesses follow the
// node's own accesses in evaluation order.
func PairsExtra(g *cfg.Graph, admit func(Access) (Key, bool), extra func(*cfg.Node) []Access) []Pair {
	pa := &pairAnalysis{accesses: make([][]Access, len(g.Nodes)), gen: make([]accessSet, len(g.Nodes))}
	for _, n := range g.Nodes {
		var shared []Access
		accs := NodeAccesses(n)
		if extra != nil {
			accs = append(accs, extra(n)...)
		}
		for _, a := range accs {
			key, ok := admit(a)
			if !ok {
				continue
			}
			a.Key = key
			if a.Pos == (minic.Pos{}) {
				a.Pos = ExprPos(a.Lvalue)
			}
			shared = append(shared, a)
			pa.refs = append(pa.refs, accessRef{n.ID, len(shared) - 1})
		}
		pa.accesses[n.ID] = shared
	}
	// Bit b stands for pa.refs[b], numbered in node order above, so each
	// node generates its own run of bits.
	words := (len(pa.refs) + 63) / 64
	for b, r := range pa.refs {
		if pa.gen[r.node] == nil {
			pa.gen[r.node] = make(accessSet, words)
		}
		pa.gen[r.node][b/64] |= 1 << (b % 64)
	}
	// Every node is an entry, so accesses in unreachable code pair up too.
	pa.succs = g.SuccIDs()
	all := make([]int, len(g.Nodes))
	for i := range all {
		all[i] = i
	}
	sol := dataflow.SolveEdges(pa.succs, all, nil, pa)

	var pairs []Pair
	add := func(key Key, first Access, fNode, fIdx int, second Access, sNode, sIdx int) {
		pairs = append(pairs, Pair{
			Key:         key,
			FirstNode:   g.Nodes[fNode],
			FirstIdx:    fIdx,
			SecondNode:  g.Nodes[sNode],
			SecondIdx:   sIdx,
			FirstType:   first.Type,
			SecondType:  second.Type,
			FirstLvalue: first.Lvalue,
		})
	}

	// Each (first, second) access pair is found once: through the reaching
	// set when the two lie in different nodes, through the ordered
	// intra-node loop when they share one.
	for _, n := range g.Nodes {
		accs := pa.accesses[n.ID]
		if len(accs) == 0 {
			continue
		}
		in := sol[n.ID].(accessSet)
		for i, a := range accs {
			// Pair with accesses reaching from predecessors. Pairs must be
			// lexically forward: a pair whose "first" access lies after its
			// "second" in the source can only arise through a loop back
			// edge, and a begin_atomic that outlives the loop iteration
			// would hold its watchpoint across arbitrary code (including
			// blocking in the scheduler), which the paper's Figure 4
			// forward-only pairs avoid. Same-node self-reach (an access
			// reaching itself around a loop) is excluded for the same
			// reason; within-statement pairs come from the ordered
			// intra-node loop below.
			for w, set := range in {
				for ; set != 0; set &= set - 1 {
					r := pa.refs[w*64+bits.TrailingZeros64(set)]
					if r.node == n.ID {
						continue
					}
					first := pa.accesses[r.node][r.idx]
					if first.Key != a.Key || !posBefore(first.Pos, a.Pos) {
						continue
					}
					add(a.Key, first, r.node, r.idx, a, n.ID, i)
				}
			}
			// Pair with earlier accesses within the same node.
			for j := 0; j < i; j++ {
				if accs[j].Key == a.Key {
					add(a.Key, accs[j], n.ID, j, a, n.ID, i)
				}
			}
		}
	}

	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.Key != b.Key {
			return keyLess(a.Key, b.Key)
		}
		if a.FirstNode.ID != b.FirstNode.ID {
			return a.FirstNode.ID < b.FirstNode.ID
		}
		if a.FirstIdx != b.FirstIdx {
			return a.FirstIdx < b.FirstIdx
		}
		if a.SecondNode.ID != b.SecondNode.ID {
			return a.SecondNode.ID < b.SecondNode.ID
		}
		return a.SecondIdx < b.SecondIdx
	})
	return pairs
}
