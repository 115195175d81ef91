package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kivati/internal/cfg"
	"kivati/internal/minic"
)

func mustParse(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

func TestLSVSeeds(t *testing.T) {
	prog := mustParse(t, `
int g1;
int g2;
int *gp;
void f(int a, int *b) {
    int priv;
    int tmp;
    priv = a + 1;
    tmp = g1;
}
int *mk() { return gp; }
void h() {
    int p;
    int q;
    p = 0;
    q = mk();
}`)
	f := prog.Func("f")
	lsv := LSV(prog, f)
	for _, want := range []string{"g1", "g2", "gp", "b", "tmp"} {
		if !lsv[want] {
			t.Errorf("LSV(f) missing %q; have %v", want, SortedLSV(lsv))
		}
	}
	for _, not := range []string{"a", "priv"} {
		if lsv[not] {
			t.Errorf("LSV(f) should not contain %q", not)
		}
	}

	h := prog.Func("h")
	lsvh := LSV(prog, h)
	if !lsvh["q"] {
		t.Error("LSV(h): local assigned a pointer-returning call must be shared")
	}
	if lsvh["p"] {
		t.Error("LSV(h): p is private")
	}
}

func TestLSVTransitive(t *testing.T) {
	prog := mustParse(t, `
int g;
void f() {
    int a;
    int b;
    int c;
    int d;
    a = g;
    b = a + 1;
    c = b * 2;
    d = 5;
}`)
	lsv := LSV(prog, prog.Func("f"))
	for _, want := range []string{"a", "b", "c"} {
		if !lsv[want] {
			t.Errorf("transitive dependence missed %q", want)
		}
	}
	if lsv["d"] {
		t.Error("d is private")
	}
}

func TestLSVAddressOf(t *testing.T) {
	prog := mustParse(t, `
int g;
void f() {
    int p;
    p = &g;
}`)
	lsv := LSV(prog, prog.Func("f"))
	if !lsv["p"] {
		t.Error("pointer derived from &g must be in LSV")
	}
}

func TestNodeAccessesOrder(t *testing.T) {
	prog := mustParse(t, "int s;\nint t;\nvoid f() { s = s + t; }")
	g := cfg.Build(prog.Funcs[0])
	n := g.Entry.Succs[0]
	accs := NodeAccesses(n)
	got := accessString(accs)
	want := "R(s) R(t) W(s)"
	if got != want {
		t.Errorf("accesses = %q, want %q", got, want)
	}
}

func TestNodeAccessesDeref(t *testing.T) {
	prog := mustParse(t, "int *p;\nint x;\nvoid f() { *p = x; x = *p; }")
	g := cfg.Build(prog.Funcs[0])
	s1 := g.Entry.Succs[0]
	if got := accessString(NodeAccesses(s1)); got != "R(x) R(p) W(*p)" {
		t.Errorf("*p = x accesses = %q", got)
	}
	s2 := s1.Succs[0]
	if got := accessString(NodeAccesses(s2)); got != "R(p) R(*p) W(x)" {
		t.Errorf("x = *p accesses = %q", got)
	}
}

func TestNodeAccessesArrayAndCond(t *testing.T) {
	prog := mustParse(t, "int a[4];\nint i;\nvoid f() { if (a[i] > 0) { a[i] = 0; } }")
	g := cfg.Build(prog.Funcs[0])
	cond := g.Entry.Succs[0]
	if got := accessString(NodeAccesses(cond)); got != "R(i) R(a)" {
		t.Errorf("cond accesses = %q", got)
	}
	body := cond.Succs[0]
	if got := accessString(NodeAccesses(body)); got != "R(i) W(a)" {
		t.Errorf("body accesses = %q", got)
	}
}

func TestNodeAccessesAddressOfReadsNothing(t *testing.T) {
	prog := mustParse(t, "int g;\nint p;\nvoid f() { p = &g; }")
	g := cfg.Build(prog.Funcs[0])
	n := g.Entry.Succs[0]
	if got := accessString(NodeAccesses(n)); got != "W(p)" {
		t.Errorf("p = &g accesses = %q, want W(p)", got)
	}
}

func accessString(accs []Access) string {
	parts := make([]string, len(accs))
	for i, a := range accs {
		c := "R"
		if a.Type == minic.AccWrite {
			c = "W"
		}
		parts[i] = fmt.Sprintf("%s(%s)", c, a.Key)
	}
	return strings.Join(parts, " ")
}

// pairString canonicalizes a pair for comparison, using source line numbers
// of the first and second access nodes.
func pairString(p Pair) string {
	line := func(n *cfg.Node) int {
		switch n.Kind {
		case cfg.KindCond:
			return exprLine(n.Cond)
		case cfg.KindStmt:
			return stmtLine(n.Stmt)
		}
		return 0
	}
	c := func(t uint8) string {
		if t == minic.AccWrite {
			return "W"
		}
		return "R"
	}
	return fmt.Sprintf("%s:%s@%d-%s@%d", p.Key, c(p.FirstType), line(p.FirstNode), c(p.SecondType), line(p.SecondNode))
}

func stmtLine(s minic.Stmt) int {
	switch st := s.(type) {
	case *minic.AssignStmt:
		return st.Pos.Line
	case *minic.DeclStmt:
		return st.Pos.Line
	case *minic.ExprStmt:
		return st.Pos.Line
	case *minic.ReturnStmt:
		return st.Pos.Line
	}
	return 0
}

func exprLine(x minic.Expr) int {
	switch e := x.(type) {
	case *minic.Binary:
		return e.Pos.Line
	case *minic.Ident:
		return e.Pos.Line
	case *minic.Unary:
		return e.Pos.Line
	}
	return 0
}

// TestPairsFigure4 reproduces the paper's Figure 4: three accesses to
// `shared` (read, write on one path, read) yield exactly three pairs —
// (2,4), (4,8) and (2,8) — because the analysis pairs every access with all
// reaching accesses, not only the closest one.
func TestPairsFigure4(t *testing.T) {
	src := `int shared;
void f() {
    int tmp;
    tmp = shared;
    if (tmp == 0) {
        shared = 1;
    }
    tmp = shared;
}`
	prog := mustParse(t, src)
	fn := prog.Funcs[0]
	g := cfg.Build(fn)
	lsv := LSV(prog, fn)
	pairs := Pairs(g, lsv)

	var got []string
	for _, p := range pairs {
		if p.Key.Name == "shared" {
			got = append(got, pairString(p))
		}
	}
	want := []string{
		"shared:R@4-W@6",
		"shared:R@4-R@8",
		"shared:W@6-R@8",
	}
	if !sameSet(got, want) {
		t.Errorf("pairs for shared = %v, want %v", got, want)
	}
}

// TestPairsFigure3 reproduces Figure 3: two overlapping ARs on two distinct
// shared variables.
func TestPairsFigure3(t *testing.T) {
	src := `int shared1;
int shared2;
void f() {
    int t1;
    int t2;
    t1 = shared1;
    t2 = shared2;
    shared1 = t1 + 1;
    shared2 = t2 + 1;
}`
	prog := mustParse(t, src)
	fn := prog.Funcs[0]
	pairs := Pairs(cfg.Build(fn), LSV(prog, fn))
	var got []string
	for _, p := range pairs {
		if strings.HasPrefix(p.Key.Name, "shared") {
			got = append(got, pairString(p))
		}
	}
	want := []string{
		"shared1:R@6-W@8",
		"shared2:R@7-W@9",
	}
	if !sameSet(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}

// TestPairsLoop: accesses inside a loop pair across the back edge.
func TestPairsLoop(t *testing.T) {
	src := `int s;
void f() {
    while (s > 0) {
        s = s - 1;
    }
}`
	prog := mustParse(t, src)
	fn := prog.Funcs[0]
	pairs := Pairs(cfg.Build(fn), LSV(prog, fn))
	var got []string
	for _, p := range pairs {
		if p.Key.Name == "s" {
			got = append(got, pairString(p))
		}
	}
	// cond read @3 pairs with body read @4 and body write @4 (same stmt:
	// s = s - 1 reads then writes), plus the within-statement pair. Pairs
	// pointing backwards across the loop back edge are excluded: a
	// begin_atomic whose end lies in the *previous* iteration would hold
	// its watchpoint across scheduler blocking, which the paper's
	// forward-only Figure 4 pairs avoid.
	want := []string{
		"s:R@3-R@4", // cond -> body read
		"s:R@3-W@4", // cond -> body write
		"s:R@4-W@4", // within statement
	}
	if !sameSet(got, want) {
		t.Errorf("loop pairs = %v, want %v", got, want)
	}
}

// TestPairsPrivateExcluded: accesses to variables outside the LSV form no
// pairs.
func TestPairsPrivateExcluded(t *testing.T) {
	src := `int g;
void f(int a) {
    int p;
    p = a;
    p = p + a;
    g = 1;
}`
	prog := mustParse(t, src)
	fn := prog.Funcs[0]
	pairs := Pairs(cfg.Build(fn), LSV(prog, fn))
	for _, p := range pairs {
		if p.Key.Name == "p" || p.Key.Name == "a" {
			t.Errorf("private variable paired: %v", pairString(p))
		}
	}
}

// TestPairsDerefDistinctFromPointer: p and *p are different shared
// variables and never pair with each other.
func TestPairsDerefDistinct(t *testing.T) {
	src := `int *p;
void f() {
    int x;
    x = *p;
    *p = x + 1;
}`
	prog := mustParse(t, src)
	fn := prog.Funcs[0]
	pairs := Pairs(cfg.Build(fn), LSV(prog, fn))
	sawDerefPair := false
	for _, p := range pairs {
		if p.Key.Deref {
			sawDerefPair = true
			if !p.Key.Deref || p.Key.Name != "p" {
				t.Errorf("bad deref pair %v", pairString(p))
			}
		}
	}
	if !sawDerefPair {
		t.Error("no pairs on *p found")
	}
	// Check specifically the R(*p)@4 - W(*p)@5 pair exists.
	found := false
	for _, p := range pairs {
		if p.Key == (Key{Name: "p", Deref: true}) && p.FirstType == minic.AccRead && p.SecondType == minic.AccWrite {
			found = true
		}
	}
	if !found {
		t.Error("missing R(*p)-W(*p) pair")
	}
}

func sameSet(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	m := map[string]int{}
	for _, g := range got {
		m[g]++
	}
	for _, w := range want {
		m[w]--
		if m[w] < 0 {
			return false
		}
	}
	return true
}

// TestPairsDeterministic: repeated analysis yields identical ordering.
func TestPairsDeterministic(t *testing.T) {
	src := `int a;
int b;
void f() {
    a = b;
    b = a;
    a = a + b;
}`
	prog := mustParse(t, src)
	fn := prog.Funcs[0]
	first := fmt.Sprint(pairsAsStrings(prog, fn))
	for i := 0; i < 5; i++ {
		if got := fmt.Sprint(pairsAsStrings(prog, fn)); got != first {
			t.Fatalf("iteration %d differs:\n%s\n%s", i, first, got)
		}
	}
}

func pairsAsStrings(prog *minic.Program, fn *minic.FuncDecl) []string {
	pairs := Pairs(cfg.Build(fn), LSV(prog, fn))
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = pairString(p)
	}
	return out
}

// TestKeyLessMatchesString: the pair sort orders keys exactly as their
// String forms compare, without building those strings.
func TestKeyLessMatchesString(t *testing.T) {
	var keys []Key
	for _, name := range []string{"", "a", "b", "ab", "*", "*a", ")", "+", "A", "_x", "x1"} {
		keys = append(keys, Key{Name: name}, Key{Name: name, Deref: true})
	}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := keyLess(a, b), a.String() < b.String(); got != want {
				t.Errorf("keyLess(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestAccessSetUnion: union is bitwise OR over sets of any length, returns
// an operand unchanged when it already covers the other, and Equal ignores
// trailing zero words.
func TestAccessSetUnion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gen := func() accessSet {
		s := make(accessSet, r.Intn(3))
		for i := range s {
			s[i] = r.Uint64() & r.Uint64() & r.Uint64()
		}
		return s
	}
	for i := 0; i < 2000; i++ {
		a, b := gen(), gen()
		u := a.union(b)
		for w := 0; w < 3; w++ {
			if u.word(w) != a.word(w)|b.word(w) {
				t.Fatalf("%x ∪ %x = %x", a, b, u)
			}
		}
		if a.covers(b) && len(a) > 0 && &u[0] != &a[0] {
			t.Fatalf("%x ∪ %x: covering operand not returned", a, b)
		}
		if !u.Equal(append(u[:len(u):len(u)], 0)) {
			t.Fatalf("%x: trailing zero word changes equality", u)
		}
	}
}
