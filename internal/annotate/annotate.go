// Package annotate is Kivati's static annotator (§3.1): for every function
// it computes the LSV, runs the reaching-access pairing analysis, and turns
// each pair into an atomic region (AR) with a globally unique ID, the watch
// type derived from the local access pair (Figure 6), and begin/end
// annotation points attached to CFG nodes. The compiler consumes the
// annotation maps; clear_ar is emitted by the compiler at every subroutine
// exit.
package annotate

import (
	"fmt"
	"sort"
	"strings"

	"kivati/internal/analysis"
	"kivati/internal/cfg"
	"kivati/internal/hw"
	"kivati/internal/interleave"
	"kivati/internal/lockset"
	"kivati/internal/minic"
)

// AR is one atomic region: a consecutive pair of accesses to the same shared
// variable within one subroutine.
type AR struct {
	ID     int
	Func   string
	Key    analysis.Key
	Target minic.Expr    // lvalue of the first access; the watched address
	Size   int           // watched width in bytes
	First  hw.AccessType // first local access type
	Second hw.AccessType // second local access type
	Watch  hw.AccessType // remote access types to monitor

	FirstNode  *cfg.Node
	SecondNode *cfg.Node
	// FirstIdx and SecondIdx index the anchoring accesses within their
	// nodes' ordered shared-access lists, so overlapping ARs on the same
	// variable can be recognized as sharing an exact access.
	FirstIdx  int
	SecondIdx int
	// Proof names the lock the lockset analysis proved (a) held across the
	// whole region and (b) held at every access to the variable anywhere in
	// the program — making the region statically serializable. Empty when
	// unproven or when the analysis did not run.
	Proof string
}

// Benign reports whether the region carries a static serializability proof.
func (ar *AR) Benign() bool { return ar.Proof != "" }

func (ar *AR) String() string {
	return fmt.Sprintf("AR%d %s.%s %v-%v watch=%v", ar.ID, ar.Func, ar.Key, ar.First, ar.Second, ar.Watch)
}

// FuncAnnotations holds the annotation result for one function.
type FuncAnnotations struct {
	Fn    *minic.FuncDecl
	Graph *cfg.Graph
	LSV   map[string]bool
	// Begin lists the ARs whose begin_atomic precedes each node; End lists
	// the ARs whose end_atomic follows each node.
	Begin map[*cfg.Node][]*AR
	End   map[*cfg.Node][]*AR
}

// Program is a fully annotated program.
type Program struct {
	Prog  *minic.Program
	Funcs []*FuncAnnotations
	ARs   []*AR // all ARs; ARs[i].ID == i+1

	// Locks is the whole-program lockset analysis result, when
	// Options.Lockset ran.
	Locks *lockset.Info
	// Opts records the options the annotator ran with.
	Opts Options
	// OptStats summarizes what the optimizer did (zero when disabled).
	OptStats OptStats
}

// StaticWhitelistIDs returns the IDs of the ARs whose serializability the
// lockset analysis proved — the compile-time replacement for Figure 7
// training. Nil when the lockset analysis did not run.
func (p *Program) StaticWhitelistIDs() []int {
	var ids []int
	for _, ar := range p.ARs {
		if ar.Benign() {
			ids = append(ids, ar.ID)
		}
	}
	return ids
}

// ByID returns the AR with the given ID, or nil.
func (p *Program) ByID(id int) *AR {
	if id < 1 || id > len(p.ARs) {
		return nil
	}
	return p.ARs[id-1]
}

// FuncAnnotations returns the annotations for the named function, or nil.
func (p *Program) FuncAnnotations(name string) *FuncAnnotations {
	for _, fa := range p.Funcs {
		if fa.Fn.Name == name {
			return fa
		}
	}
	return nil
}

func toHW(t uint8) hw.AccessType { return hw.AccessType(t) }

// Options selects the annotator's analysis precision.
type Options struct {
	// Precise enables the §3.5 future-work analyses: a points-to pass
	// whose results (a) restrict the LSV to variables another thread can
	// actually reach — globals and address-escaping locals — removing the
	// monitors on value-dependent private locals, and (b) fold a
	// dereference through a single-target pointer onto its pointee, so
	// aliased accesses pair with direct ones.
	Precise bool `json:"precise,omitempty"`
	// InterProcedural enables the §3.5 call-spanning extension: each call
	// is treated as a compound access to the globals its callee
	// transitively touches, so atomic regions form across subroutine
	// boundaries (a caller-side check paired with a helper's update).
	InterProcedural bool `json:"inter_procedural,omitempty"`
	// Lockset runs the Eraser-style must-lockset analysis and records a
	// static serializability proof (AR.Proof) on every region it covers.
	// Implied by Optimize.DropBenign.
	Lockset bool `json:"lockset,omitempty"`
	// Roots names extra thread entry points for the lockset analysis's
	// calling-context fixpoint (functions a host starts directly).
	Roots []string `json:"roots,omitempty"`
	// Optimize configures the annotation optimizer.
	Optimize OptimizeOptions `json:"optimize"`
}

// Key renders the options as a canonical string for use in cache keys.
func (o Options) Key() string {
	return fmt.Sprintf("precise=%t,inter=%t,lockset=%t,roots=%s,benign=%t,dedupe=%t,coalesce=%t",
		o.Precise, o.InterProcedural, o.Lockset, strings.Join(o.Roots, "+"),
		o.Optimize.DropBenign, o.Optimize.Dedupe, o.Optimize.Coalesce)
}

// Annotate runs the static annotator over prog with the paper-prototype
// analysis (intra-procedural, name-based, value-dependence LSV).
func Annotate(prog *minic.Program) (*Program, error) {
	return AnnotateWithOptions(prog, Options{})
}

// AnnotateWithOptions runs the static annotator with the selected precision.
func AnnotateWithOptions(prog *minic.Program, opts Options) (*Program, error) {
	out := &Program{Prog: prog}
	// One CFG per function, shared by every analysis below.
	graphs := make(map[string]*cfg.Graph, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		graphs[fn.Name] = cfg.Build(fn)
	}
	var pt *analysis.PointsTo
	if opts.Precise {
		pt = analysis.ComputePointsTo(prog)
	}
	var effects map[string]analysis.Effect
	var extra func(*cfg.Node) []analysis.Access
	if opts.InterProcedural {
		effects = analysis.FuncEffects(prog, graphs)
		extra = func(n *cfg.Node) []analysis.Access {
			return analysis.CallAccesses(prog, effects, n)
		}
	}
	if opts.Optimize.DropBenign {
		opts.Lockset = true
	}
	out.Opts = opts
	for _, fn := range prog.Funcs {
		g := graphs[fn.Name]
		var lsv map[string]bool
		var admit func(analysis.Access) (analysis.Key, bool)
		if opts.Precise {
			lsv = analysis.PreciseLSV(prog, fn, pt)
			fnName := fn.Name
			admit = func(a analysis.Access) (analysis.Key, bool) {
				if a.Key.Deref {
					// Fold singleton-target dereferences onto the
					// pointee; pairing is per-function, so only
					// globals and this function's locals merge.
					if ref, ok := pt.Resolve(fnName, a.Key.Name); ok {
						if ref.Func == "" || ref.Func == fnName {
							return analysis.Key{Name: ref.Name}, true
						}
					}
					return a.Key, true
				}
				return a.Key, lsv[a.Key.Name]
			}
		} else {
			lsv = analysis.LSV(prog, fn)
			crude := lsv
			admit = func(a analysis.Access) (analysis.Key, bool) {
				return a.Key, crude[a.Key.Name]
			}
		}
		pairs := analysis.PairsExtra(g, admit, extra)
		fa := &FuncAnnotations{
			Fn:    fn,
			Graph: g,
			LSV:   lsv,
			Begin: make(map[*cfg.Node][]*AR),
			End:   make(map[*cfg.Node][]*AR),
		}
		for _, p := range pairs {
			first := toHW(p.FirstType)
			second := toHW(p.SecondType)
			ar := &AR{
				Func:       fn.Name,
				Key:        p.Key,
				Target:     p.FirstLvalue,
				Size:       8,
				First:      first,
				Second:     second,
				Watch:      interleave.WatchType(first, second),
				FirstNode:  p.FirstNode,
				SecondNode: p.SecondNode,
				FirstIdx:   p.FirstIdx,
				SecondIdx:  p.SecondIdx,
			}
			out.ARs = append(out.ARs, ar)
		}
		out.Funcs = append(out.Funcs, fa)
	}

	if opts.Lockset {
		out.Locks = lockset.Compute(prog, graphs, lockset.Options{Roots: opts.Roots})
		for _, ar := range out.ARs {
			if ar.Key.Deref {
				continue
			}
			if lk, ok := out.Locks.ProveRegion(ar.Func, ar.Key.Name, ar.FirstNode, ar.SecondNode); ok {
				ar.Proof = lk
			}
		}
	}
	if opts.Optimize.Any() {
		out.ARs, out.OptStats = optimize(out, opts.Optimize)
	}

	// IDs are assigned only now, after classification and optimization, so
	// the table stays dense (ARs[i].ID == i+1) and the begin/end annotation
	// maps only carry surviving regions.
	byFunc := map[string]*FuncAnnotations{}
	for _, fa := range out.Funcs {
		byFunc[fa.Fn.Name] = fa
	}
	for i, ar := range out.ARs {
		ar.ID = i + 1
		fa := byFunc[ar.Func]
		fa.Begin[ar.FirstNode] = append(fa.Begin[ar.FirstNode], ar)
		fa.End[ar.SecondNode] = append(fa.End[ar.SecondNode], ar)
	}
	return out, nil
}

// Stats summarizes the annotation result.
type Stats struct {
	Funcs      int
	ARs        int
	SharedVars int // distinct (func, key) shared variables with at least one AR
}

// Stats computes summary statistics.
func (p *Program) Stats() Stats {
	vars := map[string]bool{}
	for _, ar := range p.ARs {
		vars[ar.Func+"."+ar.Key.String()] = true
	}
	return Stats{Funcs: len(p.Funcs), ARs: len(p.ARs), SharedVars: len(vars)}
}

// PrintAnnotated renders the program with annotation pseudo-statements
// inserted, in the style of the paper's Figures 3 and 4. Annotations whose
// anchor is a branch or loop condition are printed before/after the
// enclosing if/while statement with a comment, since MiniC source has no
// finer position for them; the compiler places them exactly.
func PrintAnnotated(p *Program) string {
	clone := cloneProgram(p.Prog)
	for _, fa := range p.Funcs {
		// Build per-original-statement annotation lists.
		begins := map[minic.Stmt][]*AR{}
		ends := map[minic.Stmt][]*AR{}
		condBegins := map[minic.Stmt][]*AR{}
		condEnds := map[minic.Stmt][]*AR{}
		for n, ars := range fa.Begin {
			switch n.Kind {
			case cfg.KindStmt:
				begins[n.Stmt] = append(begins[n.Stmt], ars...)
			case cfg.KindCond:
				condBegins[n.Owner] = append(condBegins[n.Owner], ars...)
			}
		}
		for n, ars := range fa.End {
			switch n.Kind {
			case cfg.KindStmt:
				ends[n.Stmt] = append(ends[n.Stmt], ars...)
			case cfg.KindCond:
				condEnds[n.Owner] = append(condEnds[n.Owner], ars...)
			}
		}
		orig := p.Prog.Func(fa.Fn.Name)
		cl := clone.Func(fa.Fn.Name)
		cl.Body = annotateBlock(orig.Body, begins, ends, condBegins, condEnds)
		// clear_ar at subroutine exit.
		cl.Body.Stmts = append(cl.Body.Stmts, &minic.AnnotStmt{Kind: minic.AnnotClear})
	}
	return minic.Print(clone)
}

func sortARs(ars []*AR) {
	sort.Slice(ars, func(i, j int) bool { return ars[i].ID < ars[j].ID })
}

func annotStmts(ars []*AR, begin bool) []minic.Stmt {
	sortARs(ars)
	out := make([]minic.Stmt, 0, len(ars))
	for _, ar := range ars {
		if begin {
			out = append(out, &minic.AnnotStmt{
				Kind:   minic.AnnotBegin,
				ARID:   ar.ID,
				Target: ar.Target,
				Size:   ar.Size,
				Watch:  uint8(ar.Watch),
				First:  uint8(ar.First),
			})
		} else {
			out = append(out, &minic.AnnotStmt{
				Kind:   minic.AnnotEnd,
				ARID:   ar.ID,
				Second: uint8(ar.Second),
			})
		}
	}
	return out
}

// annotateBlock rebuilds a block with annotations woven around the original
// statements. Statements are cloned shallowly (nested blocks rebuilt);
// expressions are shared, as they are never mutated.
func annotateBlock(b *minic.Block, begins, ends, condBegins, condEnds map[minic.Stmt][]*AR) *minic.Block {
	out := &minic.Block{}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, annotStmts(begins[s], true)...)
		out.Stmts = append(out.Stmts, annotStmts(condBegins[s], true)...)
		switch st := s.(type) {
		case *minic.IfStmt:
			cl := &minic.IfStmt{Pos: st.Pos, Cond: st.Cond}
			cl.Then = annotateBlock(st.Then, begins, ends, condBegins, condEnds)
			if st.Else != nil {
				cl.Else = annotateBlock(st.Else, begins, ends, condBegins, condEnds)
			}
			out.Stmts = append(out.Stmts, cl)
		case *minic.WhileStmt:
			cl := &minic.WhileStmt{Pos: st.Pos, Cond: st.Cond}
			cl.Body = annotateBlock(st.Body, begins, ends, condBegins, condEnds)
			out.Stmts = append(out.Stmts, cl)
		default:
			out.Stmts = append(out.Stmts, s)
		}
		out.Stmts = append(out.Stmts, annotStmts(ends[s], false)...)
		out.Stmts = append(out.Stmts, annotStmts(condEnds[s], false)...)
	}
	return out
}

func cloneProgram(p *minic.Program) *minic.Program {
	out := &minic.Program{Globals: p.Globals}
	for _, f := range p.Funcs {
		out.Funcs = append(out.Funcs, &minic.FuncDecl{
			Pos: f.Pos, Name: f.Name, Params: f.Params,
			Void: f.Void, RetPtr: f.RetPtr, Body: f.Body,
		})
	}
	return out
}

// Describe renders the AR table as text, one AR per line.
func Describe(p *Program) string {
	var b strings.Builder
	for _, ar := range p.ARs {
		fmt.Fprintf(&b, "%s\n", ar)
	}
	return b.String()
}
