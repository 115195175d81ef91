package compile_test

import (
	"strings"
	"testing"
)

// frontEndSeeds are small programs that reach every analysis the
// front-end golden configurations run: locks and lock-protected regions,
// pointers and address-taking, calls nested in arguments and conditions,
// spawned threads, arrays, and code after a return.
var frontEndSeeds = []string{
	`int g;
int m;
void main() {
    lock(m);
    g = g + 1;
    unlock(m);
}
`,
	`int g;
int h;
int rd() {
    return g;
}
int wr(int v) {
    g = v;
    return v;
}
void main() {
    h = wr(rd());
    while (rd() < 3) {
        h = wr(h + 1);
    }
}
`,
	`int *p;
int cell;
int buf[8];
void work(int id) {
    int a;
    int *q;
    q = &buf[id % 8];
    *q = id;
    p = &cell;
    a = *p;
    if (a > 3) {
        cell = -a;
    } else {
        buf[a % 8] = cell;
    }
}
void main() {
    spawn(work, 1);
    spawn(work, 2);
}
`,
	`int g;
int m;
int n;
int *lp;
void f() {
    lock(m);
    g = 1;
    return;
    unlock(*lp);
    g = 2;
}
void main() {
    f();
    lock(n);
    g = g + 1;
    unlock(n);
    unlock(m);
}
`,
}

// FuzzFrontEnd: parsing, annotating under each front-end golden
// configuration and compiling every variant never panics. Compile turns
// panics into errors, so a recovered runtime error fails the target too;
// capacity limits (too deep an expression, too many parameters) may fail
// the build with an ordinary error.
func FuzzFrontEnd(f *testing.F) {
	for _, s := range frontEndSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // keep per-exec cost bounded
		}
		for _, opts := range frontEndConfigs(nil) {
			if _, _, err := buildFrontEnd(src, opts); err != nil && strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("[%s]: %v\ninput:\n%s", opts.Key(), err, src)
			}
		}
	})
}
