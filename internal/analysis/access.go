// Package analysis implements the two static analyses of Kivati's annotator
// (§3.1): the per-subroutine List of Shared Variables (LSV), and the
// path-insensitive reaching-access data-flow analysis that pairs consecutive
// accesses to each shared variable into atomic regions.
package analysis

import (
	"kivati/internal/cfg"
	"kivati/internal/minic"
)

// Key identifies a shared variable as accessed in a subroutine. The paper's
// prototype identifies local accesses as belonging to the same shared
// variable by name only (§3.5, no alias analysis); a pointer variable p and
// its pointee *p are distinct keys.
type Key struct {
	Name  string
	Deref bool
}

func (k Key) String() string {
	if k.Deref {
		return "*" + k.Name
	}
	return k.Name
}

// Access is one memory access made by a CFG node, in evaluation order.
type Access struct {
	Key    Key
	Type   uint8      // minic.AccRead or minic.AccWrite
	Lvalue minic.Expr // expression denoting the accessed location
	Pos    minic.Pos  // source position of the access
}

// ExprPos returns the source position of an expression.
func ExprPos(x minic.Expr) minic.Pos {
	switch e := x.(type) {
	case *minic.IntLit:
		return e.Pos
	case *minic.Ident:
		return e.Pos
	case *minic.Index:
		return e.Pos
	case *minic.Unary:
		return e.Pos
	case *minic.Binary:
		return e.Pos
	case *minic.Call:
		return e.Pos
	}
	return minic.Pos{}
}

// NodeAccesses returns the ordered variable accesses a node performs:
// right-hand side reads first, then left-hand side index reads, then the
// left-hand side write — matching the evaluation order of the compiler.
func NodeAccesses(n *cfg.Node) []Access {
	var out []Access
	switch n.Kind {
	case cfg.KindCond:
		exprReads(n.Cond, &out)
	case cfg.KindStmt:
		switch st := n.Stmt.(type) {
		case *minic.DeclStmt:
			if st.Decl.Init != nil {
				exprReads(st.Decl.Init, &out)
				out = append(out, Access{
					Key:    Key{Name: st.Decl.Name},
					Type:   minic.AccWrite,
					Lvalue: &minic.Ident{Pos: st.Decl.Pos, Name: st.Decl.Name},
				})
			}
		case *minic.AssignStmt:
			exprReads(st.RHS, &out)
			// Index and pointer reads embedded in the LHS happen before
			// the store.
			switch lhs := st.LHS.(type) {
			case *minic.Index:
				exprReads(lhs.Idx, &out)
			case *minic.Unary: // *p: reading the pointer variable itself
				exprReads(lhs.X, &out)
			}
			out = append(out, lhsWrite(st.LHS))
		case *minic.ExprStmt:
			exprReads(st.X, &out)
		case *minic.ReturnStmt:
			if st.X != nil {
				exprReads(st.X, &out)
			}
		}
	}
	return out
}

func lhsWrite(lhs minic.Expr) Access {
	switch e := lhs.(type) {
	case *minic.Ident:
		return Access{Key: Key{Name: e.Name}, Type: minic.AccWrite, Lvalue: e}
	case *minic.Index:
		return Access{Key: Key{Name: e.Name}, Type: minic.AccWrite, Lvalue: e}
	case *minic.Unary: // *p
		id := e.X.(*minic.Ident)
		return Access{Key: Key{Name: id.Name, Deref: true}, Type: minic.AccWrite, Lvalue: e}
	}
	panic("analysis: invalid lvalue")
}

// exprReads appends the variable reads performed when evaluating x, in
// evaluation order.
func exprReads(x minic.Expr, out *[]Access) {
	switch e := x.(type) {
	case *minic.IntLit:
	case *minic.Ident:
		*out = append(*out, Access{Key: Key{Name: e.Name}, Type: minic.AccRead, Lvalue: e})
	case *minic.Index:
		exprReads(e.Idx, out)
		*out = append(*out, Access{Key: Key{Name: e.Name}, Type: minic.AccRead, Lvalue: e})
	case *minic.Unary:
		if e.Op == "&" {
			// Taking an address reads nothing.
			return
		}
		if e.Op == "*" {
			id := e.X.(*minic.Ident)
			// Reading *p first reads the pointer variable p, then the
			// pointee.
			*out = append(*out, Access{Key: Key{Name: id.Name}, Type: minic.AccRead, Lvalue: id})
			*out = append(*out, Access{Key: Key{Name: id.Name, Deref: true}, Type: minic.AccRead, Lvalue: e})
			return
		}
		exprReads(e.X, out)
	case *minic.Binary:
		exprReads(e.X, out)
		exprReads(e.Y, out)
	case *minic.Call:
		if e.Name == "spawn" {
			// The function-name argument is not a variable read.
			exprReads(e.Args[1], out)
			return
		}
		for _, a := range e.Args {
			exprReads(a, out)
		}
	}
}

// readNames returns the set of base variable names read by x (used by the
// LSV data-flow dependence rule).
func readNames(x minic.Expr) map[string]bool {
	var accs []Access
	exprReads(x, &accs)
	names := make(map[string]bool, len(accs))
	for _, a := range accs {
		names[a.Key.Name] = true
	}
	return names
}

// callsReturningPointer reports whether x calls a function whose return
// type is a pointer.
func callsReturningPointer(prog *minic.Program, x minic.Expr) bool {
	found := false
	minic.Inspect(x, func(e minic.Expr) bool {
		if c, ok := e.(*minic.Call); ok {
			if fn := prog.Func(c.Name); fn != nil && fn.RetPtr {
				found = true
			}
		}
		return true
	})
	return found
}

// takesAddressOf reports whether x contains &name for any name in set,
// another data-flow dependence edge (a pointer derived from a shared
// variable's address).
func takesAddressOf(x minic.Expr, set map[string]bool) bool {
	found := false
	minic.Inspect(x, func(e minic.Expr) bool {
		u, ok := e.(*minic.Unary)
		if !ok || u.Op != "&" {
			return true
		}
		switch t := u.X.(type) {
		case *minic.Ident:
			found = found || set[t.Name]
		case *minic.Index:
			found = found || set[t.Name]
		}
		return false
	})
	return found
}
