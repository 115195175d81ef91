package vm

import "kivati/internal/hw"

// Decision-delimited access segments for dynamic partial-order reduction.
//
// When segment recording is enabled (SetSegmentLimit), the machine
// accumulates a conservative summary of every memory access committed
// between two adjacent scheduling decision points. The explorer's DPOR
// pass uses segment independence — disjoint footprints, no kernel
// interaction — to recognize sibling schedules that merely commute
// independent transitions and prune them.
//
// Indexing is absolute: segs[i] is the segment that ended at decision
// point i (the execution between Pick(i-1) and Pick(i)); a snapshot taken
// inside Pick(i) therefore captures exactly i+1 closed segments, and a
// restored machine continues appending at the right absolute index. The
// summary errs toward dependence everywhere it is lossy: syscalls, traps,
// timer events, thread exits and forced (choice-free) reschedules mark the
// whole segment as conflicting with everything, and fast-path block
// footprints are folded in as writes.
//
// Segments are machine-wide: one open segment collects the accesses of
// every core between two decision points. Only on one core is that a
// transition of the chosen thread, so DPOR is single-core by contract
// (explore rejects it at other core counts).

// segMaxIntervals bounds per-segment interval lists; segments that exceed
// it collapse to Global (conflicts with everything) instead of growing.
const segMaxIntervals = 64

// Segment summarizes the committed memory accesses between two adjacent
// scheduling decision points.
type Segment struct {
	// Thread is the thread chosen at the decision point that opened the
	// segment (-1 for the pre-first-decision segment).
	Thread int
	// Global marks a segment whose effects are not fully described by the
	// access intervals (kernel entry, trap, timer event, thread switch
	// without a decision); it conflicts with every other segment.
	Global bool
	Reads  []hw.AddrRange
	Writes []hw.AddrRange
}

// overlaps reports whether any interval in a intersects any in b: segment
// independence and the chunked lockstep's disjointness test.
func overlaps(a, b []hw.AddrRange) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Lo < y.Hi && y.Lo < x.Hi {
				return true
			}
		}
	}
	return false
}

// Independent reports whether two segments provably commute: executed in
// either order from the same state they produce the same state. Distinct
// threads, no kernel interaction, and no write-sharing of any address.
func (s *Segment) Independent(o *Segment) bool {
	if s.Global || o.Global {
		return false
	}
	if s.Thread == o.Thread {
		return false // program order
	}
	if overlaps(s.Writes, o.Writes) || overlaps(s.Writes, o.Reads) || overlaps(s.Reads, o.Writes) {
		return false
	}
	return true
}

// SetSegmentLimit enables access-segment recording for the next run: up to
// n decision-delimited segments are recorded (0 disables). Resets any
// previously recorded segments.
func (m *Machine) SetSegmentLimit(n int) {
	m.segLimit = n
	m.segs = m.segs[:0]
	m.seg = Segment{Thread: -1}
}

// Segments returns the segments recorded so far (valid until the next
// restore or segment-limit reset).
func (m *Machine) Segments() []Segment { return m.segs }

// SchedSeq returns the number of scheduling decision points consumed so
// far (the absolute index of the next decision).
func (m *Machine) SchedSeq() uint64 { return m.schedSeq }

// segRecording gates the per-access/per-block recording hooks.
func (m *Machine) segRecording() bool {
	return m.segLimit > 0 && len(m.segs) < m.segLimit
}

// closeSegment finalizes the segment accumulated since the previous
// decision point. Called from schedule() immediately before Policy.Pick,
// so a snapshot taken inside Pick sees a consistent segment count.
func (m *Machine) closeSegment() {
	seg := Segment{Thread: m.seg.Thread, Global: m.seg.Global}
	if !seg.Global {
		seg.Reads = append([]hw.AddrRange(nil), m.seg.Reads...)
		seg.Writes = append([]hw.AddrRange(nil), m.seg.Writes...)
	}
	m.segs = append(m.segs, seg)
	m.seg.Global = false
	m.seg.Reads = m.seg.Reads[:0]
	m.seg.Writes = m.seg.Writes[:0]
}

// segAdd appends an interval to one of the open segment's lists,
// collapsing to Global when the list outgrows the bound.
func (m *Machine) segAdd(list *[]hw.AddrRange, r hw.AddrRange) {
	if m.seg.Global {
		return
	}
	// Cheap coalescing with the most recent interval (loops touch the
	// same addresses block after block).
	if n := len(*list); n > 0 {
		last := &(*list)[n-1]
		if r.Lo >= last.Lo && r.Hi <= last.Hi {
			return
		}
		if r.Lo <= last.Hi && r.Hi >= last.Lo { // overlapping or adjacent
			last.Lo = min(last.Lo, r.Lo)
			last.Hi = max(last.Hi, r.Hi)
			return
		}
	}
	if len(*list) >= segMaxIntervals {
		m.seg.Global = true
		return
	}
	*list = append(*list, r)
}

// segAccess records one committed access (legacy-step path).
func (m *Machine) segAccess(addr uint32, sz uint8, typ hw.AccessType) {
	r := hw.AddrRange{Lo: addr, Hi: addr + uint32(sz)}
	if typ == hw.Read {
		m.segAdd(&m.seg.Reads, r)
	} else {
		m.segAdd(&m.seg.Writes, r)
	}
}

// segFootprint folds the footprint enterBlock evaluated for core c's new
// block into the open segment at a fast-path block edge. Footprints do not
// distinguish reads from writes, so the whole footprint is recorded as
// writes — conservative for independence. A footprint the analysis could
// not bound, or whose stack intervals would wrap or fault, gives up on
// precision: the segment turns Global.
func (m *Machine) segFootprint(c *Core, class int) {
	if class != fpBounded {
		m.seg.Global = true
		return
	}
	for _, r := range c.fpRanges[:c.fpN] {
		m.segAdd(&m.seg.Writes, r)
	}
}
