package analysis

import (
	"sort"

	"kivati/internal/minic"
)

// LSV computes the List of Shared Variables for one function (§3.1):
//
//   - seeded with all global variables,
//   - plus any arguments passed by reference (pointer parameters),
//   - plus any local assigned a pointer returned from a called subroutine,
//   - closed under data-flow dependence: any variable assigned an expression
//     that reads an LSV member (or takes its address) joins the LSV,
//
// iterated to a fixpoint. The LSV over-approximates: variables in it that
// are not actually shared cost monitoring overhead but can never produce a
// violation (they are never remotely accessed).
func LSV(prog *minic.Program, fn *minic.FuncDecl) map[string]bool {
	lsv := make(map[string]bool)
	for _, g := range prog.Globals {
		lsv[g.Name] = true
	}
	for _, p := range fn.Params {
		if p.Type.Ptr {
			lsv[p.Name] = true
		}
	}

	// Collect every assignment (declarations with initializers included)
	// in the function body, flow-insensitively.
	type assign struct {
		lhs string
		rhs minic.Expr
	}
	var assigns []assign
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.DeclStmt:
			if st.Decl.Init != nil {
				assigns = append(assigns, assign{lhs: st.Decl.Name, rhs: st.Decl.Init})
			}
		case *minic.AssignStmt:
			if id, ok := st.LHS.(*minic.Ident); ok {
				assigns = append(assigns, assign{lhs: id.Name, rhs: st.RHS})
			}
		}
	})

	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if lsv[a.lhs] {
				continue
			}
			dependent := callsReturningPointer(prog, a.rhs) || takesAddressOf(a.rhs, lsv)
			if !dependent {
				for name := range readNames(a.rhs) {
					if lsv[name] {
						dependent = true
						break
					}
				}
			}
			if dependent {
				lsv[a.lhs] = true
				changed = true
			}
		}
	}
	return lsv
}

// SortedLSV returns the LSV as a sorted slice, for deterministic output.
func SortedLSV(lsv map[string]bool) []string {
	out := make([]string, 0, len(lsv))
	for name := range lsv {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
