// Package dataflow is the front end's one fixpoint engine: a forward
// worklist solver over integer-indexed graphs whose transfer functions
// produce one fact per outgoing edge. It serves the annotator's lockset
// analysis (internal/lockset) and reaching-access pairing
// (internal/analysis) over statement-level CFGs (cfg.Graph.SuccIDs), and
// the value-range footprint analysis (internal/valrange) over binary
// basic-block CFGs (cfg.BuildBinary), where the two sides of a conditional
// jump learn different things. Infinite-height lattices are supported
// through a widening operator applied at caller-designated nodes (loop
// heads), plus a visit-count failsafe that forces widening everywhere if a
// misclassified graph would otherwise diverge; analyses over finite
// lattices widen to the new fact.
package dataflow

// Facts is the lattice element attached to each program point.
// Implementations must be pure: Join, Widen and Flow return new values (or
// unchanged receivers) and never mutate their arguments.
type Facts interface {
	// Equal reports whether two fact sets are equal (fixpoint test).
	Equal(other Facts) bool
}

// EdgeAnalysis defines one forward data-flow problem over an indexed graph.
type EdgeAnalysis interface {
	// Bottom returns the fact for unreachable program points (the join
	// identity).
	Bottom() Facts
	// Entry returns the fact entering entry node n.
	Entry(n int) Facts
	// Join merges facts arriving over multiple incoming edges.
	Join(a, b Facts) Facts
	// Widen extrapolates old toward new so chains of strictly growing
	// facts terminate; the result must over-approximate Join(old, new).
	Widen(old, new Facts) Facts
	// Flow computes the node's per-edge output facts from its input fact,
	// one per successor, aligned with the node's successor list. The
	// solver copies the result, so Flow may reuse one scratch slice.
	Flow(n int, in Facts) []Facts
}

// solveMaxVisits is the failsafe: once a node has been recomputed this many
// times, every further update to it widens regardless of widenAt, so the
// fixpoint terminates even if a back-edge target was not designated.
const solveMaxVisits = 64

// SolveEdges runs the worklist algorithm over the graph whose node n has
// successors succs[n], and returns the fact entering each node. The
// worklist starts with entries, in order; Widen is applied at nodes where
// widenAt (nil for none) reports true. The input fact of a node is the
// join of its flowed predecessors' edge outputs, plus Entry for an entry
// node. A node never reached from an entry keeps Bottom and is never
// flowed; an analysis that must flow every node lists every node as an
// entry, with Entry returning Bottom for all but the real one.
func SolveEdges(succs [][]int, entries []int, widenAt func(int) bool, a EdgeAnalysis) []Facts {
	numNodes := len(succs)
	numEdges := 0
	for _, ss := range succs {
		numEdges += len(ss)
	}
	// One block of ints holds the graph in compressed rows and the solver's
	// counters: node n's outgoing edges are edges start[n]..start[n+1]-1
	// (their facts live in out), and the edges into node s are
	// predEdge[predStart[s]..predStart[s+1]-1], in predecessor order, with
	// edgeSrc naming each edge's source.
	ints := make([]int, 4*numNodes+2+2*numEdges)
	start, ints := ints[:numNodes+1], ints[numNodes+1:]
	predStart, ints := ints[:numNodes+1], ints[numNodes+1:]
	predEdge, ints := ints[:numEdges], ints[numEdges:]
	edgeSrc, ints := ints[:numEdges], ints[numEdges:]
	visits, ints := ints[:numNodes], ints[numNodes:]
	queue := ints[:numNodes] // ring buffer: each node is queued at most once
	for n, ss := range succs {
		start[n+1] = start[n] + len(ss)
		for _, s := range ss {
			predStart[s+1]++
		}
	}
	for n := 0; n < numNodes; n++ {
		predStart[n+1] += predStart[n]
	}
	fill := visits // borrowed: counts each node's filled pred slots
	for n, ss := range succs {
		for i, s := range ss {
			e := start[n] + i
			edgeSrc[e] = n
			predEdge[predStart[s]+fill[s]] = e
			fill[s]++
		}
	}
	clear(visits)

	facts := make([]Facts, numNodes+numEdges)
	in, out := facts[:numNodes], facts[numNodes:]
	for n := range in {
		in[n] = a.Bottom()
	}
	flags := make([]bool, 2*numNodes)
	queued, isEntry := flags[:numNodes], flags[numNodes:]
	head, size := 0, 0
	push := func(n int) {
		if !queued[n] {
			queued[n] = true
			queue[(head+size)%numNodes] = n
			size++
		}
	}
	for _, e := range entries {
		in[e] = a.Entry(e)
		isEntry[e] = true
		push(e)
	}

	for size > 0 {
		n := queue[head]
		head = (head + 1) % numNodes
		size--
		queued[n] = false

		fact := a.Bottom()
		if isEntry[n] {
			fact = a.Entry(n)
		}
		for _, e := range predEdge[predStart[n]:predStart[n+1]] {
			if visits[edgeSrc[e]] > 0 {
				fact = a.Join(fact, out[e])
			}
		}
		if visits[n] > 0 {
			if (widenAt != nil && widenAt(n)) || visits[n] >= solveMaxVisits {
				fact = a.Widen(in[n], fact)
			}
			if fact.Equal(in[n]) {
				continue
			}
		}
		changed := visits[n] == 0
		visits[n]++
		in[n] = fact
		edges := out[start[n]:start[n+1]]
		for i, f := range a.Flow(n, fact) {
			if !changed && !f.Equal(edges[i]) {
				changed = true
			}
			edges[i] = f
		}
		if changed {
			for _, s := range succs[n] {
				push(s)
			}
		}
	}
	return in
}
