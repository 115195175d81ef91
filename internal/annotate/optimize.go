package annotate

import (
	"sort"

	"kivati/internal/cfg"
	"kivati/internal/hw"
	"kivati/internal/interleave"
)

// OptimizeOptions selects the annotation optimizer's passes. All three only
// ever remove or merge regions whose prevention coverage another region (or
// a lockset proof) subsumes; the differential oracle in internal/explore
// checks the combination end to end.
type OptimizeOptions struct {
	// DropBenign removes regions carrying a static serializability proof:
	// the common lock already excludes every conflicting remote access, so
	// the watchpoint can never usefully fire. Implies Options.Lockset.
	DropBenign bool `json:"drop_benign,omitempty"`
	// Dedupe removes a region when two kept (or proven-benign) regions
	// split it at a shared middle access that lies on every path between
	// its endpoints and jointly watch at least what it watches — the
	// all-pairs analysis emits every such "long" pair alongside its parts.
	Dedupe bool `json:"dedupe,omitempty"`
	// Coalesce merges two regions that chain through a shared access and
	// watch the same remote types into one region spanning both, halving
	// the begin/end annotation stream for straight-line access chains.
	Coalesce bool `json:"coalesce,omitempty"`
}

// Any reports whether any pass is enabled.
func (o OptimizeOptions) Any() bool { return o.DropBenign || o.Dedupe || o.Coalesce }

// OptStats summarizes one optimizer run.
type OptStats struct {
	Input     int // ARs before optimization
	Benign    int // dropped: statically proven serializable
	Deduped   int // dropped: covered by a pair of sub-regions
	Coalesced int // removed by merging chained regions
	Output    int // ARs after optimization
}

// acc identifies one access: a CFG node and an index into its ordered
// shared-access list.
type acc struct{ node, idx int }

func firstAcc(ar *AR) acc  { return acc{ar.FirstNode.ID, ar.FirstIdx} }
func secondAcc(ar *AR) acc { return acc{ar.SecondNode.ID, ar.SecondIdx} }

// watchSubset reports x ⊆ y on access-type bit sets.
func watchSubset(x, y hw.AccessType) bool { return x&^y == 0 }

// optimize runs the enabled passes over the program's AR table (IDs not yet
// assigned) and returns the surviving regions in deterministic order.
func optimize(p *Program, o OptimizeOptions) ([]*AR, OptStats) {
	stats := OptStats{Input: len(p.ARs)}
	graphs := map[string]*cfg.Graph{}
	order := map[string]int{}
	for i, fa := range p.Funcs {
		graphs[fa.Fn.Name] = fa.Graph
		order[fa.Fn.Name] = i
	}

	// Group by (function, variable): every pass reasons about overlapping
	// regions on one variable in one function.
	type groupKey struct {
		fn  string
		key string
	}
	groups := map[groupKey][]*AR{}
	var keys []groupKey
	for _, ar := range p.ARs {
		gk := groupKey{ar.Func, ar.Key.String()}
		if groups[gk] == nil {
			keys = append(keys, gk)
		}
		groups[gk] = append(groups[gk], ar)
	}
	sort.Slice(keys, func(i, j int) bool {
		if order[keys[i].fn] != order[keys[j].fn] {
			return order[keys[i].fn] < order[keys[j].fn]
		}
		return keys[i].key < keys[j].key
	})

	var out []*AR
	for _, gk := range keys {
		kept := groups[gk]
		var benign []*AR
		if o.DropBenign {
			var rest []*AR
			for _, ar := range kept {
				if ar.Benign() {
					benign = append(benign, ar)
				} else {
					rest = append(rest, ar)
				}
			}
			stats.Benign += len(benign)
			kept = rest
		}
		if o.Dedupe {
			kept = dedupe(graphs[gk.fn], kept, benign, &stats)
		}
		if o.Coalesce {
			kept = coalesce(p, kept, &stats)
		}
		out = append(out, kept...)
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if order[a.Func] != order[b.Func] {
			return order[a.Func] < order[b.Func]
		}
		if a.Key != b.Key {
			return a.Key.String() < b.Key.String()
		}
		if fa, fb := firstAcc(a), firstAcc(b); fa != fb {
			return fa.node < fb.node || (fa.node == fb.node && fa.idx < fb.idx)
		}
		sa, sb := secondAcc(a), secondAcc(b)
		return sa.node < sb.node || (sa.node == sb.node && sa.idx < sb.idx)
	})
	stats.Output = len(out)
	return out, stats
}

// onEveryPath reports whether access b lies on every execution path from
// access a to access c. Within one node the ordered access list is
// straight-line; across nodes, b's node must disconnect a from c when
// removed.
func onEveryPath(g *cfg.Graph, a, b, c acc) bool {
	if a.node == c.node {
		return b.node == a.node && a.idx < b.idx && b.idx < c.idx
	}
	if b.node == a.node {
		return b.idx > a.idx
	}
	if b.node == c.node {
		return b.idx < c.idx
	}
	return !g.Reach(g.Nodes[a.node], false, g.Nodes[b.node])[c.node]
}

// dedupe drops every region that a pair of sub-regions covers: a shared
// middle access on every path between the endpoints, with the sub-regions
// jointly watching at least the dropped region's watch set. Proven-benign
// regions count as covers with an unrestricted watch — the lock excludes
// remote accesses in their window entirely. Longest regions go first, so a
// dropped region is always covered, transitively, by kept ones.
func dedupe(g *cfg.Graph, kept, benign []*AR, stats *OptStats) []*AR {
	type cover struct {
		watch hw.AccessType
		live  bool // still available as a cover
	}
	const fullWatch = hw.AccessType(hw.Read | hw.Write)
	type span struct{ first, second acc }
	covers := map[span]*cover{}
	for _, ar := range kept {
		covers[span{firstAcc(ar), secondAcc(ar)}] = &cover{watch: ar.Watch, live: true}
	}
	for _, ar := range benign {
		covers[span{firstAcc(ar), secondAcc(ar)}] = &cover{watch: fullWatch, live: true}
	}
	// Candidate middle accesses: every access that anchors some region in
	// the group.
	mids := map[acc]bool{}
	for _, ar := range kept {
		mids[firstAcc(ar)] = true
		mids[secondAcc(ar)] = true
	}
	var midList []acc
	for m := range mids {
		midList = append(midList, m)
	}
	sort.Slice(midList, func(i, j int) bool {
		return midList[i].node < midList[j].node ||
			(midList[i].node == midList[j].node && midList[i].idx < midList[j].idx)
	})

	idx := make([]int, len(kept))
	size := make([]int, len(kept))
	for i, ar := range kept {
		idx[i] = i
		size[i] = len(g.Region(ar.FirstNode, ar.SecondNode))
	}
	// Widest span (nodes on some first→second path) first.
	sort.SliceStable(idx, func(i, j int) bool { return size[idx[i]] > size[idx[j]] })

	dropped := make([]bool, len(kept))
	for _, i := range idx {
		ar := kept[i]
		a, c := firstAcc(ar), secondAcc(ar)
		for _, b := range midList {
			if b == a || b == c {
				continue
			}
			q1 := covers[span{a, b}]
			q2 := covers[span{b, c}]
			if q1 == nil || !q1.live || q2 == nil || !q2.live {
				continue
			}
			if !watchSubset(ar.Watch, q1.watch&q2.watch) {
				continue
			}
			if !onEveryPath(g, a, b, c) {
				continue
			}
			dropped[i] = true
			covers[span{a, c}].live = false
			stats.Deduped++
			break
		}
	}
	var out []*AR
	for i, ar := range kept {
		if !dropped[i] {
			out = append(out, ar)
		}
	}
	return out
}

// coalesce repeatedly merges two regions chained through a shared access
// into one region spanning both. The merge is prevention-sound — the merged
// window contains both originals and watches the same types — and is only
// done when both watch sets agree and already cover the merged endpoint
// pair's Figure 6 watch type, so the merged region traps no more than the
// chain did. Duplicate spans left behind (a merge can recreate an existing
// long region) collapse into one with the union watch.
func coalesce(p *Program, kept []*AR, stats *OptStats) []*AR {
	for {
		merged := false
		for i := 0; i < len(kept) && !merged; i++ {
			for j := 0; j < len(kept); j++ {
				if i == j {
					continue
				}
				q1, q2 := kept[i], kept[j]
				if secondAcc(q1) != firstAcc(q2) || q1.Watch != q2.Watch {
					continue
				}
				if !watchSubset(interleave.WatchType(q1.First, q2.Second), q1.Watch) {
					continue
				}
				m := &AR{
					Func:       q1.Func,
					Key:        q1.Key,
					Target:     q1.Target,
					Size:       q1.Size,
					First:      q1.First,
					Second:     q2.Second,
					Watch:      q1.Watch,
					FirstNode:  q1.FirstNode,
					SecondNode: q2.SecondNode,
					FirstIdx:   q1.FirstIdx,
					SecondIdx:  q2.SecondIdx,
				}
				if p.Locks != nil && !m.Key.Deref {
					if lk, ok := p.Locks.ProveRegion(m.Func, m.Key.Name, m.FirstNode, m.SecondNode); ok {
						m.Proof = lk
					}
				}
				var rest []*AR
				for k, ar := range kept {
					if k != i && k != j {
						rest = append(rest, ar)
					}
				}
				kept = append(rest, m)
				stats.Coalesced++
				merged = true
				break
			}
		}
		if !merged {
			break
		}
	}
	// Collapse duplicate spans (merged region == an existing long pair).
	type span struct{ first, second acc }
	seen := map[span]*AR{}
	var out []*AR
	for _, ar := range kept {
		sp := span{firstAcc(ar), secondAcc(ar)}
		if prev := seen[sp]; prev != nil {
			prev.Watch |= ar.Watch
			if prev.Proof == "" {
				prev.Proof = ar.Proof
			}
			stats.Coalesced++
			continue
		}
		seen[sp] = ar
		out = append(out, ar)
	}
	return out
}
