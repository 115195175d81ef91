package lockset

import (
	"kivati/internal/analysis"
	"kivati/internal/cfg"
	"kivati/internal/dataflow"
	"kivati/internal/minic"
)

// A lock is identified by the name of a global variable passed to
// lock()/unlock(): the builtins receive the *address* of their operand, so
// a global operand names one stable runtime lock. Operands that are locals
// name per-activation stack addresses (never a shared lock — ignored), and
// operands that are derefs or array elements can alias anything, so an
// unlock through one conservatively clobbers every tracked lock.

// opKind classifies one lock-relevant action inside a CFG node.
type opKind int

const (
	opAcquire    opKind = iota // lock(g), g a global: add g
	opRelease                  // unlock(g), g a global: remove g
	opReleaseAny               // unlock(<deref/element>): may release anything
	opCall                     // call to a user function: apply its summary
)

// op is one lock-relevant action; Name is the lock for acquire/release and
// the callee for opCall.
type op struct {
	kind opKind
	name string
}

// summary is one function's inter-procedural lock effect.
type summary struct {
	// mayRelease holds every lock the function (transitively) may unlock;
	// Top when it may unlock through an alias.
	mayRelease Set
	// mustAcquire holds the locks definitely held at the function's exit
	// when it is entered holding none.
	mustAcquire Set
}

// FuncInfo is the per-function analysis result.
type FuncInfo struct {
	Fn    *minic.FuncDecl
	Graph *cfg.Graph
	// Context is the set of locks held at every call site of this function
	// (Empty for thread entry points; Top for dead code).
	Context Set
	// In and Out are the solved must-locksets on entry to and exit from
	// each node, indexed by node ID, with Context folded in.
	In, Out []Set

	held     []Set           // heldThroughout cache, by node ID
	ops      map[int][]op    // lock-relevant ops per node, in evaluation order
	shadowed map[string]bool // global names hidden by a param or local
	nodes    []int           // every node ID: the solver's entries
}

// Options configure Compute.
type Options struct {
	// Roots names additional thread entry functions — functions a host may
	// start directly (core.Start) — whose calling context must be assumed
	// empty. main, spawn targets and functions with no call sites are
	// always roots.
	Roots []string
}

// Info is the whole-program lockset analysis result.
type Info struct {
	Prog  *minic.Program
	Funcs map[string]*FuncInfo

	order     []string // prog.Funcs order, for deterministic iteration
	sums      map[string]*summary
	addrTaken map[string]bool // globals whose address is taken somewhere
	syncVars  map[string]bool // globals used as lock/unlock operands
	globals   map[string]bool
	cand      map[string]Set // global -> candidate lockset (Eraser)
}

// Compute runs the analysis. graphs, if non-nil, supplies prebuilt CFGs by
// function name (the annotator passes its own so node identities match);
// missing entries are built here.
func Compute(prog *minic.Program, graphs map[string]*cfg.Graph, opts Options) *Info {
	info := &Info{
		Prog:      prog,
		Funcs:     map[string]*FuncInfo{},
		sums:      map[string]*summary{},
		addrTaken: map[string]bool{},
		syncVars:  map[string]bool{},
		globals:   map[string]bool{},
		cand:      map[string]Set{},
	}
	for _, g := range prog.Globals {
		info.globals[g.Name] = true
	}
	for _, fn := range prog.Funcs {
		info.order = append(info.order, fn.Name)
		g := graphs[fn.Name]
		if g == nil {
			g = cfg.Build(fn)
		}
		fi := &FuncInfo{Fn: fn, Graph: g, shadowed: map[string]bool{}}
		for _, d := range fn.Locals() {
			fi.shadowed[d.Name] = true
		}
		fi.ops = map[int][]op{}
		fi.nodes = make([]int, len(g.Nodes))
		for id, n := range g.Nodes {
			fi.nodes[id] = id
			if ops := info.nodeOps(fi, n); len(ops) > 0 {
				fi.ops[id] = ops
			}
		}
		info.Funcs[fn.Name] = fi
	}
	info.scanAddressesAndSyncVars()
	info.solveSummaries()
	info.solveContexts(opts)
	info.finish()
	return info
}

// nodeOps extracts the node's lock-relevant actions in evaluation order:
// a call's arguments act before the call itself.
func (i *Info) nodeOps(fi *FuncInfo, n *cfg.Node) []op {
	var out []op
	emit := func(c *minic.Call) {
		switch c.Name {
		case "lock", "unlock":
			acquire := c.Name == "lock"
			if id, ok := c.Args[0].(*minic.Ident); ok {
				if i.globals[id.Name] && !fi.shadowed[id.Name] {
					if acquire {
						out = append(out, op{opAcquire, id.Name})
					} else {
						out = append(out, op{opRelease, id.Name})
					}
				}
				// A local operand names a per-activation stack address:
				// never a tracked lock, no effect either way.
				return
			}
			// Deref or element operand: the address can alias any lock.
			if !acquire {
				out = append(out, op{opReleaseAny, ""})
			}
		default:
			if i.Prog.Func(c.Name) != nil {
				out = append(out, op{opCall, c.Name})
			}
		}
	}
	n.Exprs(func(x minic.Expr) { minic.WalkCalls(x, emit) })
	return out
}

// apply folds one op into a lockset.
func (i *Info) apply(s Set, o op) Set {
	switch o.kind {
	case opAcquire:
		return s.Add(o.name)
	case opRelease:
		return s.Remove(o.name)
	case opReleaseAny:
		return Empty()
	default: // opCall
		sum := i.sums[o.name]
		if sum == nil {
			return s
		}
		return s.Subtract(sum.mayRelease).Union(sum.mustAcquire)
	}
}

// transfer folds node n's ops into s.
func (i *Info) transfer(fi *FuncInfo, n int, s Set) Set {
	for _, o := range fi.ops[n] {
		s = i.apply(s, o)
	}
	return s
}

// topFacts is Top boxed once: Set values are immutable, so every solve
// shares it.
var topFacts dataflow.Facts = Top()

// lockAnalysis is the must-lockset problem as a dataflow.SolveEdges
// instance: top as the initial fact, intersection join, op-folding flow,
// the same fact on every out-edge. The lattice is finite (the locks named
// in the program), so Widen keeps the new fact.
type lockAnalysis struct {
	info    *Info
	fi      *FuncInfo
	entry   dataflow.Facts
	scratch []dataflow.Facts
}

func (*lockAnalysis) Bottom() dataflow.Facts                     { return topFacts }
func (*lockAnalysis) Widen(_, new dataflow.Facts) dataflow.Facts { return new }

func (a *lockAnalysis) Entry(n int) dataflow.Facts {
	if n == a.fi.Graph.Entry.ID {
		return a.entry
	}
	return topFacts
}

func (*lockAnalysis) Join(x, y dataflow.Facts) dataflow.Facts {
	return x.(Set).Intersect(y.(Set))
}

func (a *lockAnalysis) Flow(n int, in dataflow.Facts) []dataflow.Facts {
	var out dataflow.Facts = a.info.transfer(a.fi, n, in.(Set))
	a.scratch = a.scratch[:0]
	for range a.fi.Graph.SuccIDs()[n] {
		a.scratch = append(a.scratch, out)
	}
	return a.scratch
}

// solve runs the intra-procedural fixpoint for one function with the given
// entry lockset, storing the solution in fi.In/fi.Out. Every node is an
// entry, so dead code gets the locksets its own predecessors give it.
func (i *Info) solve(fi *FuncInfo, entry Set) {
	in := dataflow.SolveEdges(fi.Graph.SuccIDs(), fi.nodes, nil, &lockAnalysis{info: i, fi: fi, entry: entry})
	fi.In = make([]Set, len(in))
	fi.Out = make([]Set, len(in))
	for id := range in {
		fi.In[id] = in[id].(Set)
		fi.Out[id] = i.transfer(fi, id, fi.In[id])
	}
}

// scanAddressesAndSyncVars records address-taken globals (a global whose
// address escapes may be accessed through pointers the name-based analysis
// cannot see, so it is never classifiable) and lock-operand globals.
func (i *Info) scanAddressesAndSyncVars() {
	for _, name := range i.order {
		fi := i.Funcs[name]
		global := func(name string) bool { return i.globals[name] && !fi.shadowed[name] }
		visit := func(x minic.Expr) bool {
			switch e := x.(type) {
			case *minic.Unary:
				if e.Op != "&" {
					break
				}
				var base string
				switch t := e.X.(type) {
				case *minic.Ident:
					base = t.Name
				case *minic.Index:
					base = t.Name
				}
				if global(base) {
					i.addrTaken[base] = true
				}
			case *minic.Call:
				if e.Name == "lock" || e.Name == "unlock" {
					if id, ok := e.Args[0].(*minic.Ident); ok && global(id.Name) {
						i.syncVars[id.Name] = true
					}
				}
			}
			return true
		}
		minic.WalkStmts(fi.Fn.Body, func(s minic.Stmt) {
			minic.StmtExprs(s, func(x minic.Expr) { minic.Inspect(x, visit) })
		})
	}
}

// solveSummaries computes the call-graph fixpoints: mayRelease (a transitive
// union over syntactic releases) first, then mustAcquire (repeated intra
// solves from an empty entry, monotone once mayRelease is fixed).
func (i *Info) solveSummaries() {
	for _, name := range i.order {
		i.sums[name] = &summary{mayRelease: Empty(), mustAcquire: Empty()}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range i.order {
			fi := i.Funcs[name]
			mr := i.sums[name].mayRelease
			for _, ops := range fi.ops {
				for _, o := range ops {
					switch o.kind {
					case opRelease:
						mr = mr.Add(o.name)
					case opReleaseAny:
						mr = Top()
					case opCall:
						mr = mr.Union(i.sums[o.name].mayRelease)
					}
				}
			}
			if !mr.Equal(i.sums[name].mayRelease) {
				i.sums[name].mayRelease = mr
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range i.order {
			fi := i.Funcs[name]
			i.solve(fi, Empty())
			ma := fi.Out[fi.Graph.Exit.ID]
			if !ma.Equal(i.sums[name].mustAcquire) {
				i.sums[name].mustAcquire = ma
				changed = true
			}
		}
	}
}

// roots returns the thread entry functions: main, spawn targets, functions
// no one calls, and any extras the caller names.
func (i *Info) roots(opts Options) map[string]bool {
	roots := map[string]bool{"main": true}
	called := map[string]bool{}
	visit := func(c *minic.Call) {
		if i.Prog.Func(c.Name) != nil {
			called[c.Name] = true
		}
		if c.Name == "spawn" && len(c.Args) > 0 {
			if id, ok := c.Args[0].(*minic.Ident); ok {
				roots[id.Name] = true
			}
		}
	}
	for _, name := range i.order {
		minic.WalkStmts(i.Funcs[name].Fn.Body, func(s minic.Stmt) {
			minic.StmtExprs(s, func(x minic.Expr) { minic.WalkCalls(x, visit) })
		})
	}
	for _, name := range i.order {
		if !called[name] {
			roots[name] = true
		}
	}
	for _, name := range opts.Roots {
		roots[name] = true
	}
	return roots
}

// solveContexts iterates the calling-context fixpoint: each function's
// context is the intersection of the locksets at all of its call sites
// (Empty for roots), shrinking monotonically from Top.
func (i *Info) solveContexts(opts Options) {
	roots := i.roots(opts)
	ctx := map[string]Set{}
	for _, name := range i.order {
		if roots[name] {
			ctx[name] = Empty()
		} else {
			ctx[name] = Top()
		}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range i.order {
			i.solve(i.Funcs[name], ctx[name])
		}
		next := map[string]Set{}
		for _, name := range i.order {
			if roots[name] {
				next[name] = Empty()
			} else {
				next[name] = Top()
			}
		}
		for _, name := range i.order {
			fi := i.Funcs[name]
			for _, n := range fi.Graph.Nodes {
				cur := fi.In[n.ID]
				for _, o := range fi.ops[n.ID] {
					if o.kind == opCall {
						next[o.name] = next[o.name].Intersect(cur)
					}
					cur = i.apply(cur, o)
				}
			}
		}
		for _, name := range i.order {
			if !next[name].Equal(ctx[name]) {
				ctx[name] = next[name]
				changed = true
			}
		}
	}
	for _, name := range i.order {
		fi := i.Funcs[name]
		fi.Context = ctx[name]
		i.solve(fi, ctx[name])
	}
}

// finish caches per-node held-throughout sets and computes the per-global
// candidate locksets.
func (i *Info) finish() {
	for _, name := range i.order {
		fi := i.Funcs[name]
		fi.held = make([]Set, len(fi.Graph.Nodes))
		for _, n := range fi.Graph.Nodes {
			released := Empty()
			for _, o := range fi.ops[n.ID] {
				switch o.kind {
				case opRelease:
					released = released.Add(o.name)
				case opReleaseAny:
					released = Top()
				case opCall:
					released = released.Union(i.sums[o.name].mayRelease)
				}
			}
			fi.held[n.ID] = fi.In[n.ID].Intersect(fi.Out[n.ID]).Subtract(released)
		}
	}
	for g := range i.globals {
		i.cand[g] = Top()
	}
	for _, name := range i.order {
		fi := i.Funcs[name]
		for _, n := range fi.Graph.Nodes {
			for _, a := range analysis.NodeAccesses(n) {
				if a.Key.Deref || !i.globals[a.Key.Name] || fi.shadowed[a.Key.Name] {
					continue
				}
				i.cand[a.Key.Name] = i.cand[a.Key.Name].Intersect(fi.held[n.ID])
			}
		}
	}
}

// Candidate returns the Eraser candidate lockset of a global: the
// intersection of the locksets over every named access to it, program-wide.
// ok is false for names that are not globals.
func (i *Info) Candidate(global string) (Set, bool) {
	s, ok := i.cand[global]
	return s, ok
}

// SyncVar reports whether the global is used as a lock/unlock operand.
func (i *Info) SyncVar(global string) bool { return i.syncVars[global] }

// AddressTaken reports whether the global's address is taken anywhere.
func (i *Info) AddressTaken(global string) bool { return i.addrTaken[global] }

// ProveRegion attempts the static serializability proof for an atomic
// region on varName whose accesses anchor at nodes first and second of
// function fn. It returns a lock that (a) every access to varName anywhere
// in the program holds and (b) is provably held across every node on every
// first→second path — so no conflicting remote access can interleave with
// the region, which is therefore benign. Globals whose address is taken or
// that are themselves lock operands are never proven.
func (i *Info) ProveRegion(fn, varName string, first, second *cfg.Node) (string, bool) {
	fi := i.Funcs[fn]
	if fi == nil || !i.globals[varName] || fi.shadowed[varName] {
		return "", false
	}
	if i.addrTaken[varName] || i.syncVars[varName] {
		return "", false
	}
	cand := i.cand[varName]
	if cand.IsTop() || cand.IsEmpty() {
		return "", false
	}
	held := Top()
	for _, n := range fi.Graph.Region(first, second) {
		held = held.Intersect(fi.held[n.ID])
	}
	pick := cand.Intersect(held)
	if pick.IsTop() || pick.IsEmpty() {
		return "", false
	}
	return pick.Names()[0], true
}
