package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"kivati/internal/compile"
	"kivati/internal/hw"
	"kivati/internal/kernel"
	"kivati/internal/trace"
)

// Copy-on-write machine snapshots.
//
// A Snapshot captures everything a run's future depends on — registers,
// threads, run queue, per-core watchpoint files, pending timer events,
// kernel state, RNG cursor, decision counter, and data memory — at a
// quiescent point: before Run starts, or inside a SchedulePolicy.Pick
// callback (the machine is between instructions, the current segment is
// closed, and no core is mid-step).
//
// Memory is shared copy-on-write through a two-level page directory: 64
// chunk pointers, each chunk a table of 32 page pointers. The store path
// marks the written page and its chunk dirty — from the machine's birth,
// so the initial InitMem and Start writes are tracked too, and every page
// nothing wrote shares one all-zero page. Snapshot copies the directory by
// value, clones only dirty chunks and copies only dirty pages; Restore
// skips every chunk it shares with the snapshot that has not been written
// since, and copies back only pages that differ in the rest. Capture and
// restore therefore cost O(64 + pages written), not O(address space).
//
// Snapshots are immutable once taken and machine-portable: a published
// chunk or page is never written again, so a snapshot taken on one
// machine restores onto any machine built from the same binary and
// configuration (the explorer gives each worker its own machine and
// shares snapshots freely).

const (
	pageShift  = 12
	pageSize   = 1 << pageShift
	numPages   = int(compile.MemSize >> pageShift)
	chunkShift = 5
	chunkPages = 1 << chunkShift
	numChunks  = numPages >> chunkShift
)

// numPages is a power of two, so markDirty may mask page numbers with
// numPages-1.
var _ = [1]struct{}{}[numPages&(numPages-1)]

// pageChunk is one immutable second-level table of the page directory.
type pageChunk [chunkPages][]byte

// pageDir is the first level: the image as numChunks shared chunks.
type pageDir [numChunks]*pageChunk

// zeroPage is the shared capture of every page nothing has written, and
// zeroChunk the chunk of zeroPages every fresh directory starts from.
var (
	zeroPage  = make([]byte, pageSize)
	zeroChunk = func() *pageChunk {
		c := new(pageChunk)
		for i := range c {
			c[i] = zeroPage
		}
		return c
	}()
)

// memImage is a machine's data memory. Every machine draws an all-zero one
// from imagePool and returns it, all zero again, through Release.
type memImage [compile.MemSize]byte

var imagePool = sync.Pool{New: func() any { return new(memImage) }}

// countingSource wraps a deterministic rand source and counts draws, so a
// snapshot can record the RNG cursor and a restore can rewind it by
// resetting the cursor. Seeding is lazy: the stdlib generator's seeding
// scan walks a ~600-word state vector, which dominated per-schedule reset
// cost before runs that never consult the scheduler RNG — every fixture
// without an arrival workload — learned to skip it. The source therefore
// holds only (seed, draw count) until the first draw materializes the
// stdlib state, and Seed/rewind just reset the pair.
type countingSource struct {
	src  rand.Source
	s64  rand.Source64
	seed int64
	n    uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed}
}

// materialize builds the stdlib source at (seed, n) on first draw.
func (c *countingSource) materialize() {
	src := rand.NewSource(c.seed)
	c.src = src
	c.s64, _ = src.(rand.Source64)
	for i := uint64(0); i < c.n; i++ {
		src.Int63()
	}
}

func (c *countingSource) Int63() int64 {
	if c.src == nil {
		c.materialize()
	}
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.src = nil
	c.s64 = nil
	c.seed = seed
	c.n = 0
}

func (c *countingSource) Uint64() uint64 {
	if c.src == nil {
		c.materialize()
	}
	if c.s64 != nil {
		c.n++
		return c.s64.Uint64()
	}
	// Source without Uint64 (not the stdlib one): mirror rand.Rand's
	// two-draw composition so the count stays exact.
	c.n += 2
	return uint64(c.src.Int63())>>31 | uint64(c.src.Int63())<<32
}

// rewind resets the source to (seed, draws). For the stdlib source one
// Uint64 and one Int63 advance the state identically, so a draw count
// fully determines the state regardless of which methods consumed it;
// materialize replays the draws if the stream is ever consulted again.
func (c *countingSource) rewind(seed int64, draws uint64) {
	c.src = nil
	c.s64 = nil
	c.seed = seed
	c.n = draws
}

type coreSnap struct {
	wp     *hw.RegisterFile
	curTID int // -1 = idle
	coreState
}

// Snapshot is an immutable capture of a machine's execution state. See the
// package comment above for the capture points and portability contract.
type Snapshot struct {
	machState
	seed     int64
	rngDraws uint64
	quantum  uint64

	threads []Thread
	runq    []int
	cores   []coreSnap
	events  []event
	pages   pageDir

	// reqWaiters are the threads blocked in recv. With no request
	// generator (Snapshot refuses one) nothing ever wakes them, and they
	// are the only request state a snapshottable machine can hold.
	reqWaiters []int

	output []int64
	faults []string

	segCount int

	kern *kernel.Snapshot
	log  trace.LogState
}

// SchedSeq returns the number of decision points consumed when the
// snapshot was taken (the absolute index of the next decision).
func (s *Snapshot) SchedSeq() uint64 { return s.schedSeq }

// Snapshot captures the machine's state. The machine must be at a quiescent
// point (before Run, or inside a Policy.Pick callback). It fails on a
// released machine, on a machine built with a request generator (its
// arrivals and latencies are not captured), and if a closure event (After)
// is pending, since closures cannot be captured as data.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.Mem == nil {
		return nil, errReleased
	}
	if m.cfg.Requests != nil {
		return nil, errors.New("vm: a machine built with Config.Requests is not snapshottable")
	}
	for i := range m.events {
		if m.events[i].kind == evFn {
			return nil, fmt.Errorf("vm: pending closure event at tick %d is not snapshottable", m.events[i].tick)
		}
	}
	s := &Snapshot{
		machState:  m.machState,
		seed:       m.rsrc.seed,
		rngDraws:   m.rsrc.n,
		quantum:    m.cfg.Costs.Quantum,
		threads:    make([]Thread, len(m.threads)),
		runq:       make([]int, len(m.runq)),
		cores:      make([]coreSnap, len(m.cores)),
		events:     append([]event(nil), m.events...),
		reqWaiters: make([]int, len(m.reqWaiters)),
		output:     append([]int64(nil), m.Output...),
		faults:     append([]string(nil), m.Faults...),
		// A snapshot taken inside Pick(d) has already closed segment d, but
		// a resumed run re-executes that Pick — including its closeSegment —
		// so the restored machine must hold only the segments of fully
		// completed decisions (min handles the recording-limit cutoff).
		segCount: min(len(m.segs), int(m.schedSeq)),
		kern:     m.K.Snapshot(),
		log:      m.K.Log.SaveState(),
	}
	for i, t := range m.threads {
		s.threads[i] = *t
	}
	for i, t := range m.runq {
		s.runq[i] = t.ID
	}
	for i, c := range m.cores {
		wp := hw.NewRegisterFile(len(c.WP.WPs))
		wp.CopyFrom(c.WP)
		cs := coreSnap{wp: wp, curTID: -1, coreState: c.coreState}
		if c.Cur != nil {
			cs.curTID = c.Cur.ID
		}
		s.cores[i] = cs
	}
	for i, w := range m.reqWaiters {
		s.reqWaiters[i] = w.ID
	}
	// CoW page capture: give each dirty chunk a fresh table holding fresh
	// copies of its dirty pages, then share the whole directory by value.
	// Published chunks and pages are never written again, which is what
	// makes snapshots immutable and portable across machines.
	for ci := range m.chunkDirty {
		if !m.chunkDirty[ci] {
			continue
		}
		nc := *m.shadow[ci]
		for j := range nc {
			p := ci<<chunkShift + j
			if m.pageDirty[p] {
				nc[j] = append([]byte(nil), m.Mem[p<<pageShift:(p+1)<<pageShift]...)
				m.pageDirty[p] = false
			}
		}
		m.shadow[ci] = &nc
		m.chunkDirty[ci] = false
	}
	s.pages = m.shadow
	return s, nil
}

// errReleased is what a released machine answers with instead of reading
// the zeros of an image it no longer owns.
var errReleased = errors.New("vm: machine used after Release")

// Release returns the machine's memory image to the pool vm.New draws
// from. The machine is unusable afterwards: Run and Restore panic,
// Snapshot fails. Calling Release again is a no-op. Snapshots taken on the
// machine stay valid — they share none of its image.
func (m *Machine) Release() {
	if m.Mem == nil {
		return
	}
	// Every page not provably zero is dirty or holds a private copy in the
	// directory; clear exactly those so the pooled image is zero.
	for ci, c := range &m.shadow {
		if c == zeroChunk && !m.chunkDirty[ci] {
			continue
		}
		for j, pg := range c {
			p := ci<<chunkShift + j
			if m.pageDirty[p] || !samePage(pg, zeroPage) {
				clear(m.Mem[p<<pageShift : (p+1)<<pageShift])
			}
		}
	}
	imagePool.Put((*memImage)(m.Mem))
	m.Mem = nil
}

// mustLive panics when op runs on a released machine.
func (m *Machine) mustLive(op string) {
	if m.Mem == nil {
		panic(fmt.Sprintf("%v: %s", errReleased, op))
	}
}

// Restore rewinds the machine to a snapshot. The machine must have been
// built from the same binary and an equivalent configuration (core count,
// watchpoint count) as the snapshot's source machine — not necessarily the
// same machine. After Restore the machine continues exactly as the source
// machine would have from the capture point; Run may be re-entered.
func (m *Machine) Restore(s *Snapshot) {
	m.mustLive("Restore")
	m.machState = s.machState
	m.cfg.Costs.Quantum = s.quantum
	m.rsrc.rewind(s.seed, s.rngDraws)

	for i := range s.threads {
		var t *Thread
		if i < len(m.threads) {
			t = m.threads[i]
		} else {
			t = new(Thread)
			m.threads = append(m.threads, t)
		}
		*t = s.threads[i]
	}
	m.threads = m.threads[:len(s.threads)]

	m.runq = m.runq[:0]
	for _, tid := range s.runq {
		m.runq = append(m.runq, m.threads[tid])
	}
	for i, cs := range s.cores {
		c := m.cores[i]
		c.WP.CopyFrom(cs.wp)
		c.coreState = cs.coreState
		if cs.curTID >= 0 {
			c.Cur = m.threads[cs.curTID]
		} else {
			c.Cur = nil
		}
		c.nacc = 0
		c.trapAborted = false
		c.dropBlock()
	}
	m.events = append(m.events[:0], s.events...)

	// Memory: copy back only pages that provably differ from the
	// snapshot — a page is unchanged when it still shares the snapshot's
	// copy and has not been written since. A chunk shared with the
	// snapshot and not written since holds only such pages.
	for ci, sc := range &s.pages {
		mc := m.shadow[ci]
		if mc == sc && !m.chunkDirty[ci] {
			continue
		}
		for j, pg := range sc {
			p := ci<<chunkShift + j
			if m.pageDirty[p] || !samePage(mc[j], pg) {
				copy(m.Mem[p<<pageShift:(p+1)<<pageShift], pg)
				m.pageDirty[p] = false
			}
		}
		m.shadow[ci] = sc
		m.chunkDirty[ci] = false
	}

	m.reqWaiters = m.reqWaiters[:0]
	for _, tid := range s.reqWaiters {
		m.reqWaiters = append(m.reqWaiters, m.threads[tid])
	}

	m.Output = append(m.Output[:0], s.output...)
	m.Faults = append(m.Faults[:0], s.faults...)
	m.reason = ""
	m.curCore = nil
	m.epochBlocked = 0
	m.live = 0
	for _, t := range m.threads {
		if t.State != stDone {
			m.live++
		}
		if t.State == stBlocked && (t.Block == kernel.BlockEpoch || t.Block == kernel.BlockPause) {
			m.epochBlocked++
		}
	}

	// Segment recording resumes at the snapshot's absolute index. Entries
	// below it belong to whatever run this machine executed last and are
	// never read (a resumed run only inspects segments recorded after its
	// branch point); pad with Global placeholders to keep indexes aligned.
	if m.segLimit > 0 {
		if len(m.segs) > s.segCount {
			m.segs = m.segs[:s.segCount]
		}
		for len(m.segs) < s.segCount {
			m.segs = append(m.segs, Segment{Thread: -1, Global: true})
		}
		m.seg = Segment{Thread: -1, Reads: m.seg.Reads[:0], Writes: m.seg.Writes[:0]}
	}

	m.K.Restore(s.kern)
	m.K.Log.RestoreState(s.log)
}

// samePage reports whether two directory entries are one shared page.
func samePage(a, b []byte) bool { return &a[0] == &b[0] }

// SetPolicy replaces the schedule policy for the next run.
func (m *Machine) SetPolicy(p SchedulePolicy) {
	m.cfg.Policy = p
}

// Reseed resets the scheduler RNG to a fresh stream. Valid only at the
// run's start (clock 0), before any draw has influenced execution.
func (m *Machine) Reseed(seed int64) { m.rsrc.Seed(seed) }

// SetQuantum sets the scheduling quantum and re-arms every core's first
// timer accordingly. Valid only at clock 0 (typically right after
// restoring the initial snapshot), matching what New does at construction.
func (m *Machine) SetQuantum(q uint64) {
	if q == 0 {
		q = defaultQuantum
	}
	m.cfg.Costs.Quantum = q
	for _, c := range m.cores {
		c.NextTimer = q
	}
}
