package minic

// The front end's one traversal layer: every analysis that walks a MiniC
// AST does so through these functions, so they all agree on which
// expressions a statement evaluates and in what order.

// Locals returns the function's parameters, then its local declarations
// in source order.
func (f *FuncDecl) Locals() []*VarDecl {
	out := append([]*VarDecl(nil), f.Params...)
	WalkStmts(f.Body, func(s Stmt) {
		if d, ok := s.(*DeclStmt); ok {
			out = append(out, d.Decl)
		}
	})
	return out
}

// WalkStmts calls f on every statement of b in source order, each before
// the statements of its nested blocks.
func WalkStmts(b *Block, f func(Stmt)) {
	for _, s := range b.Stmts {
		f(s)
		switch st := s.(type) {
		case *IfStmt:
			WalkStmts(st.Then, f)
			if st.Else != nil {
				WalkStmts(st.Else, f)
			}
		case *WhileStmt:
			WalkStmts(st.Body, f)
		}
	}
}

// StmtExprs calls f on the statement's own top-level expressions, not
// those of its nested blocks, in evaluation order: an assignment's
// right-hand side before its left-hand side. Annotations have none.
func StmtExprs(s Stmt, f func(Expr)) {
	visit := func(x Expr) {
		if x != nil {
			f(x)
		}
	}
	switch st := s.(type) {
	case *DeclStmt:
		visit(st.Decl.Init)
	case *AssignStmt:
		visit(st.RHS)
		visit(st.LHS)
	case *ExprStmt:
		visit(st.X)
	case *ReturnStmt:
		visit(st.X)
	case *IfStmt:
		visit(st.Cond)
	case *WhileStmt:
		visit(st.Cond)
	}
}

// Inspect calls f on x and its subexpressions in pre-order, operands left
// to right. When f returns false, the subexpressions of that node are
// skipped.
func Inspect(x Expr, f func(Expr) bool) {
	if x == nil || !f(x) {
		return
	}
	switch e := x.(type) {
	case *Unary:
		Inspect(e.X, f)
	case *Binary:
		Inspect(e.X, f)
		Inspect(e.Y, f)
	case *Index:
		Inspect(e.Idx, f)
	case *Call:
		for _, a := range e.Args {
			Inspect(a, f)
		}
	}
}

// WalkCalls calls f on every call in x in evaluation order: a call's
// arguments, left to right, before the call itself.
func WalkCalls(x Expr, f func(*Call)) {
	switch e := x.(type) {
	case *Call:
		for _, a := range e.Args {
			WalkCalls(a, f)
		}
		f(e)
	case *Unary:
		WalkCalls(e.X, f)
	case *Binary:
		WalkCalls(e.X, f)
		WalkCalls(e.Y, f)
	case *Index:
		WalkCalls(e.Idx, f)
	}
}
