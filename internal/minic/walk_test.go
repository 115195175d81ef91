package minic

import (
	"strings"
	"testing"
)

// TestWalkOrder pins the traversal layer's orders: statements before their
// nested blocks, right-hand sides before left-hand sides, pre-order
// expressions with pruning, and a call's arguments before the call.
func TestWalkOrder(t *testing.T) {
	prog, err := Parse(`int g;
int a[4];
int f(int x) {
    return x;
}
int h(int x, int y) {
    int u;
    u = x;
    while (u < y) {
        int v;
        v = u;
        u = v + 1;
    }
    return u;
}
void main() {
    int k;
    a[f(1)] = h(f(2), f(3)) + g;
    if (g) {
        int z;
        z = &g;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	var locals []string
	for _, d := range prog.Func("h").Locals() {
		locals = append(locals, d.Name)
	}
	if got := strings.Join(locals, " "); got != "x y u v" {
		t.Errorf("h's locals = %q, want params then declarations", got)
	}

	main := prog.Func("main")
	var stmts []string
	WalkStmts(main.Body, func(s Stmt) {
		var b strings.Builder
		printStmt(&b, 0, s)
		stmts = append(stmts, strings.Fields(b.String())[0])
	})
	if got := strings.Join(stmts, " "); got != "int a[f(1)] if int z" {
		t.Errorf("main's statements = %q", got)
	}

	assign := main.Body.Stmts[1]
	var exprs, calls []string
	StmtExprs(assign, func(x Expr) {
		exprs = append(exprs, ExprString(x))
		WalkCalls(x, func(c *Call) { calls = append(calls, ExprString(c)) })
	})
	if got := strings.Join(exprs, " | "); got != "(h(f(2), f(3)) + g) | a[f(1)]" {
		t.Errorf("assignment expressions = %q, want RHS then LHS", got)
	}
	if got := strings.Join(calls, " "); got != "f(2) f(3) h(f(2), f(3)) f(1)" {
		t.Errorf("calls = %q, want arguments before the call, RHS before LHS", got)
	}

	var seen []string
	Inspect(assign.(*AssignStmt).RHS, func(x Expr) bool {
		seen = append(seen, ExprString(x))
		_, isCall := x.(*Call)
		return !isCall
	})
	if got := strings.Join(seen, " | "); got != "(h(f(2), f(3)) + g) | h(f(2), f(3)) | g" {
		t.Errorf("pruned pre-order = %q", got)
	}
}
