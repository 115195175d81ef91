package compile_test

// Front-end golden test: a fixed corpus built through parse → annotate →
// compile must keep producing the same AR tables, code, function entries
// and footprint tables. The hashes in testdata/frontend_golden.txt pin the
// outputs, so a change meant only to make the front end cheaper cannot
// silently change what it emits.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/bugs"
	"kivati/internal/compile"
	"kivati/internal/corpusgen"
	"kivati/internal/minic"
	"kivati/internal/workloads"
)

const frontEndGolden = "testdata/frontend_golden.txt"

// frontEndSource is one program of the golden corpus.
type frontEndSource struct {
	name, text string
	roots      []string
}

// frontEndApps are the bench-suite applications and the bug fixtures'
// exploration sources.
func frontEndApps() []frontEndSource {
	var srcs []frontEndSource
	for _, spec := range workloads.BenchSuite(1) {
		var roots []string
		for _, s := range spec.Starts {
			roots = append(roots, s.Fn)
		}
		srcs = append(srcs, frontEndSource{spec.Name, spec.Source, roots})
	}
	for _, bug := range bugs.Corpus() {
		srcs = append(srcs, frontEndSource{bug.App + "/" + bug.ID, bug.ExploreSource, nil})
	}
	return srcs
}

// frontEndCorpus is the golden corpus: frontEndApps and 40 generated
// programs (seed 1, both array decoys on).
func frontEndCorpus(t testing.TB) []frontEndSource {
	t.Helper()
	srcs := frontEndApps()
	progs, err := corpusgen.Generate(corpusgen.Options{
		Count: 40, Seed: 1, Arrays: true, BoundedArrays: true, Parallelism: 1,
	})
	if err != nil {
		t.Fatalf("corpusgen: %v", err)
	}
	for _, p := range progs {
		srcs = append(srcs, frontEndSource{p.Name, p.Source, nil})
	}
	return srcs
}

// allPasses enables every annotation optimizer pass.
var allPasses = annotate.OptimizeOptions{DropBenign: true, Dedupe: true, Coalesce: true}

// frontEndConfigs are the four annotator configurations: the prototype
// annotator; the lockset analysis with every optimizer pass; the precise
// inter-procedural analysis (points-to and call effects); and all of them
// together. The first two are the ones the build benchmark runs.
func frontEndConfigs(roots []string) []annotate.Options {
	return []annotate.Options{
		{Roots: roots},
		{Roots: roots, Lockset: true, Optimize: allPasses},
		{Roots: roots, Precise: true, InterProcedural: true},
		{Roots: roots, Precise: true, InterProcedural: true, Lockset: true, Optimize: allPasses},
	}
}

// frontEndVariants are the vanilla, annotated and shadow-write binaries.
var frontEndVariants = []struct {
	name string
	opts compile.Options
}{
	{"vanilla", compile.Options{}},
	{"annotated", compile.Options{Annotate: true}},
	{"shadow", compile.Options{Annotate: true, ShadowWrites: true}},
}

// buildFrontEnd parses, annotates and compiles src once per variant.
func buildFrontEnd(src string, opts annotate.Options) (*annotate.Program, []*compile.Binary, error) {
	ast, err := minic.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	ap, err := annotate.AnnotateWithOptions(ast, opts)
	if err != nil {
		return nil, nil, err
	}
	bins := make([]*compile.Binary, len(frontEndVariants))
	for i, v := range frontEndVariants {
		if bins[i], err = compile.Compile(ap, v.opts); err != nil {
			return nil, nil, err
		}
	}
	return ap, bins, nil
}

func shortSum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

// arTableHash hashes every field of the AR table that reaches the binary or
// the reports.
func arTableHash(ap *annotate.Program) string {
	h := sha256.New()
	for _, ar := range ap.ARs {
		fmt.Fprintf(h, "%d|%s|%s|%s|%d|%v|%v|%v|%d|%d|%d|%d|%s\n",
			ar.ID, ar.Func, ar.Key, minic.ExprString(ar.Target), ar.Size,
			ar.First, ar.Second, ar.Watch, ar.FirstNode.ID, ar.SecondNode.ID,
			ar.FirstIdx, ar.SecondIdx, ar.Proof)
	}
	return shortSum(h)
}

func footprintsHash(bin *compile.Binary) string {
	h := sha256.New()
	for _, f := range bin.Footprints {
		binary.Write(h, binary.LittleEndian, f)
	}
	return shortSum(h)
}

func entriesHash(bin *compile.Binary) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, bin.FuncEntries)
	return shortSum(h)
}

func codeHash(bin *compile.Binary) string {
	h := sha256.New()
	h.Write(bin.Code)
	return shortSum(h)
}

// frontEndLines builds the golden corpus and renders one line per build:
// source, annotator configuration, variant, then the hashes of the AR
// table, the code, the function entries and the footprint table.
func frontEndLines(t testing.TB) []string {
	t.Helper()
	var lines []string
	for _, s := range frontEndCorpus(t) {
		for _, opts := range frontEndConfigs(s.roots) {
			ap, bins, err := buildFrontEnd(s.text, opts)
			if err != nil {
				t.Fatalf("%s [%s]: %v", s.name, opts.Key(), err)
			}
			ars := arTableHash(ap)
			for i, bin := range bins {
				lines = append(lines, fmt.Sprintf("%s %s %s ars=%s code=%s entries=%s footprints=%s",
					s.name, opts.Key(), frontEndVariants[i].name,
					ars, codeHash(bin), entriesHash(bin), footprintsHash(bin)))
			}
		}
	}
	return lines
}

func TestFrontEndOutputsUnchanged(t *testing.T) {
	f, err := os.Open(frontEndGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := frontEndLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d builds, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("build %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d builds differ from %s", bad, len(got), frontEndGolden)
	}
}

// BenchmarkFrontEnd builds the bench-suite applications and the bug
// fixtures end to end, under the build benchmark's two annotator
// configurations (prototype; lockset and optimizer) and into all three
// binaries per build. Run it with -benchmem: allocation is the front end's
// main cost besides the analyses themselves.
func BenchmarkFrontEnd(b *testing.B) {
	srcs := frontEndApps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			for _, opts := range frontEndConfigs(s.roots)[:2] {
				if _, _, err := buildFrontEnd(s.text, opts); err != nil {
					b.Fatalf("%s [%s]: %v", s.name, opts.Key(), err)
				}
			}
		}
	}
}
