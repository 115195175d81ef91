package analysis

import (
	"sort"

	"kivati/internal/cfg"
	"kivati/internal/minic"
)

// This file implements the inter-procedural extension the paper lists as
// future work (§3.5): "Kivati could be enhanced to perform inter-procedural
// analysis to detect ARs that span subroutines, allowing it to detect
// atomicity violations on such ARs as well."
//
// The design is summary-based: for every function we compute the set of
// *global* variables it (transitively) reads and writes — its effect. A call
// statement in a caller is then treated as a compound access to those
// globals, so the reaching-access pairing can form atomic regions that span
// the call: a check in the caller followed by an update inside a helper
// pairs up, with begin_atomic before the preceding access and end_atomic
// right after the call returns. The regions are slightly wider than the
// precise access span (the whole callee executes inside), which is
// conservative: Kivati may monitor longer, never shorter.

// Effect records the access types a function performs on each global.
type Effect map[string]uint8 // global name -> AccRead|AccWrite bits

// FuncEffects computes, to a fixpoint over the call graph, the transitive
// global-variable effects of every function. Builtins have no global
// effects. graphs, if non-nil, supplies prebuilt CFGs by function name (the
// annotator passes its own); missing entries are built here.
func FuncEffects(prog *minic.Program, graphs map[string]*cfg.Graph) map[string]Effect {
	globals := map[string]bool{}
	for _, g := range prog.Globals {
		globals[g.Name] = true
	}
	eff := map[string]Effect{}
	calls := map[string][]string{} // caller -> callees
	for _, fn := range prog.Funcs {
		e := Effect{}
		g := graphs[fn.Name]
		if g == nil {
			g = cfg.Build(fn)
		}
		for _, n := range g.Nodes {
			for _, a := range NodeAccesses(n) {
				if !a.Key.Deref && globals[a.Key.Name] {
					e[a.Key.Name] |= a.Type
				}
			}
		}
		eff[fn.Name] = e
		minic.WalkStmts(fn.Body, func(s minic.Stmt) {
			minic.StmtExprs(s, func(x minic.Expr) {
				minic.WalkCalls(x, func(c *minic.Call) {
					if prog.Func(c.Name) != nil {
						calls[fn.Name] = append(calls[fn.Name], c.Name)
					}
				})
			})
		})
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			ce := eff[caller]
			for _, callee := range callees {
				for name, bits := range eff[callee] {
					if ce[name]&bits != bits {
						ce[name] |= bits
						changed = true
					}
				}
			}
		}
	}
	return eff
}

// SortedEffect lists an effect's globals deterministically.
func SortedEffect(e Effect) []string {
	out := make([]string, 0, len(e))
	for name := range e {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CallAccesses expands the calls a CFG node makes into pseudo-accesses to
// the globals the callees (transitively) touch, per the effects table, in
// the calls' evaluation order: a call's arguments before the call. The
// pseudo-access's lvalue names the global directly — the begin_atomic emitted
// for a pair anchored at the call computes the global's address as usual.
// A read-and-written global yields a read access followed by a write access
// (the internal order inside the callee is unknown; emitting both covers
// every pairing the callee could anchor).
func CallAccesses(prog *minic.Program, effects map[string]Effect, n *cfg.Node) []Access {
	var out []Access
	emit := func(c *minic.Call) {
		e := effects[c.Name]
		for _, name := range SortedEffect(e) {
			pos := ExprPos(c)
			lv := &minic.Ident{Pos: pos, Name: name}
			if e[name]&minic.AccRead != 0 {
				out = append(out, Access{
					Key: Key{Name: name}, Type: minic.AccRead, Lvalue: lv, Pos: pos,
				})
			}
			if e[name]&minic.AccWrite != 0 {
				out = append(out, Access{
					Key: Key{Name: name}, Type: minic.AccWrite, Lvalue: lv, Pos: pos,
				})
			}
		}
	}
	// Calls in conditions count too (e.g. while (next() < n)).
	n.Exprs(func(x minic.Expr) {
		minic.WalkCalls(x, func(c *minic.Call) {
			if prog.Func(c.Name) != nil {
				emit(c)
			}
		})
	})
	return out
}
