package valrange_test

// The selective solve (only regions whose facts are read, plus regions the
// pre-scan flags) must answer every AccessFootprint query exactly as the
// every-region reference does. compile's footprint table is a function of
// the decoded image and those answers alone, so identical answers mean
// byte-identical footprint tables.

import (
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/compile"
	"kivati/internal/corpusgen"
	"kivati/internal/isa"
	"kivati/internal/minic"
	"kivati/internal/valrange"
	"kivati/internal/workloads"
)

type refSource struct {
	name, text string
	roots      []string
}

// referenceCorpus is the front-end golden corpus: the bench-suite
// applications, the bug fixtures and 40 generated programs (seed 1, both
// array decoys on).
func referenceCorpus(t *testing.T) []refSource {
	var srcs []refSource
	for _, spec := range workloads.BenchSuite(1) {
		var roots []string
		for _, s := range spec.Starts {
			roots = append(roots, s.Fn)
		}
		srcs = append(srcs, refSource{spec.Name, spec.Source, roots})
	}
	for _, bug := range bugs.Corpus() {
		srcs = append(srcs, refSource{bug.App + "/" + bug.ID, bug.ExploreSource, nil})
	}
	progs, err := corpusgen.Generate(corpusgen.Options{
		Count: 40, Seed: 1, Arrays: true, BoundedArrays: true, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		srcs = append(srcs, refSource{p.Name, p.Source, nil})
	}
	return srcs
}

func TestSelectiveSolveMatchesReference(t *testing.T) {
	opt := valrange.Options{StackLo: compile.StackBase, StackHi: compile.StackBase + compile.MaxThreads*compile.StackSize}
	variants := []compile.Options{{}, {Annotate: true}, {Annotate: true, ShadowWrites: true}}
	resolved := 0
	for _, s := range referenceCorpus(t) {
		lock := annotate.Options{
			Roots: s.roots, Lockset: true,
			Optimize: annotate.OptimizeOptions{DropBenign: true, Dedupe: true, Coalesce: true},
		}
		for _, opts := range []annotate.Options{{Roots: s.roots}, lock} {
			ast, err := minic.Parse(s.text)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			ap, err := annotate.AnnotateWithOptions(ast, opts)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			for _, v := range variants {
				bin, err := compile.Compile(ap, v)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				decoded, _, err := isa.DecodeProgram(bin.Code)
				if err != nil {
					t.Fatal(err)
				}
				got := valrange.AnalyzeDecoded(decoded, bin.FuncEntries, opt)
				ref := valrange.AnalyzeEveryRegion(decoded, bin.FuncEntries, opt)
				if got.Resolved() != ref.Resolved() {
					t.Fatalf("%s [%s] %+v: %d accesses proved, reference %d",
						s.name, opts.Key(), v, got.Resolved(), ref.Resolved())
				}
				for pc := range decoded {
					f, ok := got.AccessFootprint(uint32(pc))
					rf, rok := ref.AccessFootprint(uint32(pc))
					if ok != rok || f != rf {
						t.Fatalf("%s [%s] %+v pc %d: %v %+v, reference %v %+v",
							s.name, opts.Key(), v, pc, ok, f, rok, rf)
					}
				}
				resolved += ref.Resolved()
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no access proved on the corpus: the comparison is vacuous")
	}
}
