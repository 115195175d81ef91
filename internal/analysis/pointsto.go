package analysis

import (
	"sort"

	"kivati/internal/minic"
)

// This file implements the pointer analysis the paper lists as future work
// (§3.5): "pointer analysis could be used to better identify shared
// variables … as well as identify ARs involving local accesses to the same
// shared variable that occur due to an alias."
//
// It is a flow-insensitive, Andersen-style inclusion analysis over the whole
// program, with two clients:
//
//   - PreciseLSV: a variable is shared only if another thread can actually
//     reach its storage — globals, and locals whose address escapes. The
//     prototype LSV's "data-flow dependent on a shared variable" rule
//     over-approximates wildly (a local copy of a shared value is not itself
//     remotely accessible); the precise rule removes those monitors.
//   - Resolve: a dereference *p whose points-to set is a single named
//     variable is keyed as that variable, so aliased accesses pair with
//     direct ones.

// Ref names a variable: Func is "" for globals.
type Ref struct {
	Func string
	Name string
}

func (r Ref) String() string {
	if r.Func == "" {
		return r.Name
	}
	return r.Func + "." + r.Name
}

// PointsTo is the fixpoint result.
type PointsTo struct {
	prog *minic.Program
	// sets maps a pointer variable to the variables it may point to.
	sets map[Ref]map[Ref]bool
	// escaped marks variables whose address is taken anywhere.
	escaped map[Ref]bool
	// locals maps a function to the names its parameters and
	// declarations bind.
	locals map[string]map[string]bool
}

// constraint is one inclusion edge: pts(src) ⊆ pts(dst); for addr edges the
// target itself joins pts(dst).
type constraint struct {
	dst  Ref
	src  Ref  // for copy edges
	addr *Ref // for address-of edges
}

// ComputePointsTo runs the analysis over the program.
func ComputePointsTo(prog *minic.Program) *PointsTo {
	pt := &PointsTo{
		prog:    prog,
		sets:    map[Ref]map[Ref]bool{},
		escaped: map[Ref]bool{},
		locals:  map[string]map[string]bool{},
	}
	var cons []constraint

	globals := map[string]bool{}
	for _, g := range prog.Globals {
		globals[g.Name] = true
	}
	for _, fn := range prog.Funcs {
		names := map[string]bool{}
		for _, d := range fn.Locals() {
			names[d.Name] = true
		}
		pt.locals[fn.Name] = names
	}
	// refOf resolves a name in a function scope to its Ref: a parameter or
	// local declaration shadows a global of the same name.
	refOf := func(fn *minic.FuncDecl, name string) Ref {
		if globals[name] && !pt.locals[fn.Name][name] {
			return Ref{Name: name}
		}
		return Ref{Func: fn.Name, Name: name}
	}

	// rhsSources lists the pointer sources of an expression: address-of
	// targets, pointer variables, and pointer-returning calls (modeled via
	// per-function return refs).
	var rhsSources func(fn *minic.FuncDecl, x minic.Expr, out *[]constraint, dst Ref)
	rhsSources = func(fn *minic.FuncDecl, x minic.Expr, out *[]constraint, dst Ref) {
		switch e := x.(type) {
		case *minic.Unary:
			if e.Op == "&" {
				switch t := e.X.(type) {
				case *minic.Ident:
					r := refOf(fn, t.Name)
					pt.escaped[r] = true
					*out = append(*out, constraint{dst: dst, addr: &r})
				case *minic.Index:
					r := refOf(fn, t.Name)
					pt.escaped[r] = true
					*out = append(*out, constraint{dst: dst, addr: &r})
				}
				return
			}
			rhsSources(fn, e.X, out, dst)
		case *minic.Ident:
			*out = append(*out, constraint{dst: dst, src: refOf(fn, e.Name)})
		case *minic.Binary:
			rhsSources(fn, e.X, out, dst)
			rhsSources(fn, e.Y, out, dst)
		case *minic.Call:
			if callee := pt.prog.Func(e.Name); callee != nil {
				if callee.RetPtr {
					*out = append(*out, constraint{dst: dst, src: Ref{Func: e.Name, Name: "$ret"}})
				}
			}
		}
	}

	for _, fn := range prog.Funcs {
		minic.WalkStmts(fn.Body, func(s minic.Stmt) {
			switch st := s.(type) {
			case *minic.DeclStmt:
				if st.Decl.Init != nil {
					rhsSources(fn, st.Decl.Init, &cons, Ref{Func: fn.Name, Name: st.Decl.Name})
				}
			case *minic.AssignStmt:
				if id, ok := st.LHS.(*minic.Ident); ok {
					rhsSources(fn, st.RHS, &cons, refOf(fn, id.Name))
				}
			case *minic.ReturnStmt:
				if st.X != nil && fn.RetPtr {
					rhsSources(fn, st.X, &cons, Ref{Func: fn.Name, Name: "$ret"})
				}
			}
			// Parameter binding for every call in the statement.
			minic.StmtExprs(s, func(x minic.Expr) {
				minic.WalkCalls(x, func(c *minic.Call) {
					callee := prog.Func(c.Name)
					if callee == nil {
						return
					}
					for i, p := range callee.Params {
						if i >= len(c.Args) {
							break
						}
						rhsSources(fn, c.Args[i], &cons, Ref{Func: callee.Name, Name: p.Name})
					}
				})
			})
		})
	}

	// Fixpoint.
	add := func(dst, pointee Ref) bool {
		set := pt.sets[dst]
		if set == nil {
			set = map[Ref]bool{}
			pt.sets[dst] = set
		}
		if set[pointee] {
			return false
		}
		set[pointee] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cons {
			if c.addr != nil {
				if add(c.dst, *c.addr) {
					changed = true
				}
				continue
			}
			for pointee := range pt.sets[c.src] {
				if add(c.dst, pointee) {
					changed = true
				}
			}
		}
	}
	return pt
}

// Pointees returns the sorted points-to set of a pointer variable in a
// function scope ("" for a global pointer).
func (pt *PointsTo) Pointees(fn, name string) []Ref {
	r := Ref{Func: fn, Name: name}
	if _, global := pt.sets[Ref{Name: name}]; global && !pt.isLocal(fn, name) {
		r = Ref{Name: name}
	}
	var out []Ref
	for p := range pt.sets[r] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (pt *PointsTo) isLocal(fn, name string) bool { return pt.locals[fn][name] }

// Escapes reports whether the variable's address is taken anywhere.
func (pt *PointsTo) Escapes(fn, name string) bool {
	if pt.escaped[Ref{Func: fn, Name: name}] {
		return true
	}
	return !pt.isLocal(fn, name) && pt.escaped[Ref{Name: name}]
}

// Resolve maps a dereference of pointer `name` in function `fn` to a
// concrete variable when the points-to set is a singleton. ok is false when
// the target is ambiguous or unknown.
func (pt *PointsTo) Resolve(fn, name string) (Ref, bool) {
	ps := pt.Pointees(fn, name)
	if len(ps) == 1 {
		return ps[0], true
	}
	return Ref{}, false
}

// PreciseLSV computes the improved list of shared variables for a function:
// globals plus locals and parameters whose address escapes. A local's stack
// slot is unreachable from other threads otherwise, so value-dependence
// alone no longer marks it shared — the big precision win over the
// prototype LSV. (Dereferences are admitted separately by the pairing's
// resolver: the *pointee* is shared even when the pointer variable's own
// slot is private.)
func PreciseLSV(prog *minic.Program, fn *minic.FuncDecl, pt *PointsTo) map[string]bool {
	lsv := map[string]bool{}
	for _, g := range prog.Globals {
		lsv[g.Name] = true
	}
	for _, d := range fn.Locals() {
		if pt.Escapes(fn.Name, d.Name) {
			lsv[d.Name] = true
		}
	}
	return lsv
}
