package hw

import (
	"testing"
	"testing/quick"
)

func TestAccessTypeString(t *testing.T) {
	cases := map[AccessType]string{Read: "R", Write: "W", ReadWrite: "RW", 0: "-"}
	for at, want := range cases {
		if got := at.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", at, got, want)
		}
	}
}

func TestValidSize(t *testing.T) {
	for _, sz := range []uint8{1, 2, 4, 8} {
		if !ValidSize(sz) {
			t.Errorf("ValidSize(%d) = false", sz)
		}
	}
	for _, sz := range []uint8{0, 3, 5, 6, 7, 9, 16} {
		if ValidSize(sz) {
			t.Errorf("ValidSize(%d) = true", sz)
		}
	}
}

func TestMatchBasic(t *testing.T) {
	rf := NewRegisterFile(4)
	rf.Set(0, Watchpoint{Addr: 0x1000, Size: 8, Types: Write, Armed: true, Owner: 1, LocalOf: -1})

	if got := rf.Match(2, 0x1000, 8, Write); got != 0 {
		t.Errorf("exact write match = %d, want 0", got)
	}
	if got := rf.Match(2, 0x1000, 8, Read); got != -1 {
		t.Errorf("read against write-only watchpoint = %d, want -1", got)
	}
	if got := rf.Match(2, 0x0ff8, 8, Write); got != -1 {
		t.Errorf("adjacent-below access = %d, want -1", got)
	}
	if got := rf.Match(2, 0x1008, 8, Write); got != -1 {
		t.Errorf("adjacent-above access = %d, want -1", got)
	}
	if got := rf.Match(2, 0x1004, 4, Write); got != 0 {
		t.Errorf("partial overlap = %d, want 0", got)
	}
	if got := rf.Match(2, 0x0ffc, 8, Write); got != 0 {
		t.Errorf("straddling overlap = %d, want 0", got)
	}
}

func TestMatchLocalExemption(t *testing.T) {
	// Optimization 3: the local thread that owns the AR does not trap.
	rf := NewRegisterFile(4)
	rf.Set(0, Watchpoint{Addr: 0x2000, Size: 4, Types: ReadWrite, Armed: true, Owner: 7, LocalOf: 7})
	if got := rf.Match(7, 0x2000, 4, Write); got != -1 {
		t.Errorf("local thread trapped: %d, want -1", got)
	}
	if got := rf.Match(8, 0x2000, 4, Write); got != 0 {
		t.Errorf("remote thread did not trap: %d, want 0", got)
	}
}

func TestMatchDisarmed(t *testing.T) {
	rf := NewRegisterFile(4)
	rf.Set(1, Watchpoint{Addr: 0x3000, Size: 8, Types: ReadWrite, Armed: false})
	if got := rf.Match(1, 0x3000, 8, Read); got != -1 {
		t.Errorf("disarmed watchpoint matched: %d", got)
	}
}

func TestMatchFirstOfSeveral(t *testing.T) {
	rf := NewRegisterFile(4)
	rf.Set(2, Watchpoint{Addr: 0x4000, Size: 8, Types: ReadWrite, Armed: true, Owner: 1, LocalOf: -1})
	rf.Set(3, Watchpoint{Addr: 0x4000, Size: 8, Types: ReadWrite, Armed: true, Owner: 2, LocalOf: -1})
	if got := rf.Match(9, 0x4000, 8, Read); got != 2 {
		t.Errorf("Match = %d, want first matching index 2", got)
	}
}

func TestFreeIndex(t *testing.T) {
	rf := NewRegisterFile(2)
	if got := rf.FreeIndex(); got != 0 {
		t.Errorf("FreeIndex on empty file = %d, want 0", got)
	}
	rf.Set(0, Watchpoint{Addr: 1, Size: 1, Types: Read, Armed: true})
	if got := rf.FreeIndex(); got != 1 {
		t.Errorf("FreeIndex = %d, want 1", got)
	}
	rf.Set(1, Watchpoint{Addr: 2, Size: 1, Types: Read, Armed: true})
	if got := rf.FreeIndex(); got != -1 {
		t.Errorf("FreeIndex on full file = %d, want -1 (missed AR condition)", got)
	}
	rf.Clear(0)
	if got := rf.FreeIndex(); got != 0 {
		t.Errorf("FreeIndex after Clear = %d, want 0", got)
	}
}

func TestCopyFrom(t *testing.T) {
	src := NewRegisterFile(4)
	src.Set(0, Watchpoint{Addr: 0x10, Size: 4, Types: Write, Armed: true, Owner: 3, LocalOf: 3})
	src.Epoch = 9
	dst := NewRegisterFile(4)
	dst.CopyFrom(src)
	if dst.Epoch != 9 {
		t.Errorf("Epoch = %d, want 9", dst.Epoch)
	}
	if dst.WPs[0] != src.WPs[0] {
		t.Errorf("WPs[0] = %+v, want %+v", dst.WPs[0], src.WPs[0])
	}
	// Mutating dst must not affect src (independent register files).
	dst.Clear(0)
	if !src.WPs[0].Armed {
		t.Error("Clear on copy disarmed the source register file")
	}
}

func TestSetPanics(t *testing.T) {
	rf := NewRegisterFile(2)
	assertPanics(t, "index out of range", func() { rf.Set(5, Watchpoint{}) })
	assertPanics(t, "invalid size", func() {
		rf.Set(0, Watchpoint{Addr: 1, Size: 3, Types: Read, Armed: true})
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// Property: Match respects the overlap definition exactly — it returns a hit
// iff the byte ranges intersect, the types intersect, and the thread is not
// the exempted local.
func TestMatchProperty(t *testing.T) {
	f := func(wpAddr uint16, wpSzSel, accSzSel uint8, accAddr uint16, wpT, accT uint8, tid, local int8) bool {
		sizes := []uint8{1, 2, 4, 8}
		wp := Watchpoint{
			Addr:    uint32(wpAddr),
			Size:    sizes[wpSzSel%4],
			Types:   AccessType(wpT%3 + 1),
			Armed:   true,
			Owner:   0,
			LocalOf: int(local),
		}
		rf := NewRegisterFile(1)
		rf.Set(0, wp)
		at := AccessType(1 << (accT % 2)) // Read or Write
		asz := sizes[accSzSel%4]
		got := rf.Match(int(tid), uint32(accAddr), asz, at) == 0
		want := wp.Types&at != 0 &&
			int(tid) != wp.LocalOf &&
			uint32(accAddr) < wp.Addr+uint32(wp.Size) &&
			wp.Addr < uint32(accAddr)+uint32(asz)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// checkSummary asserts the armed summary matches a fresh rescan of the
// registers.
func checkSummary(t *testing.T, rf *RegisterFile, context string) {
	t.Helper()
	armed := 0
	var lo, hi uint32
	for _, wp := range rf.WPs {
		if !wp.Armed {
			continue
		}
		end := wp.Addr + uint32(wp.Size)
		if armed == 0 {
			lo, hi = wp.Addr, end
		} else {
			if wp.Addr < lo {
				lo = wp.Addr
			}
			if end > hi {
				hi = end
			}
		}
		armed++
	}
	if got := rf.ArmedCount(); got != armed {
		t.Errorf("%s: ArmedCount = %d, want %d", context, got, armed)
	}
	gotLo, gotHi, ok := rf.Window()
	if ok != (armed > 0) {
		t.Errorf("%s: Window ok = %v, want %v", context, ok, armed > 0)
	}
	if ok && (gotLo != lo || gotHi != hi) {
		t.Errorf("%s: Window = [%#x, %#x), want [%#x, %#x)", context, gotLo, gotHi, lo, hi)
	}
}

func TestArmedSummaryCoherence(t *testing.T) {
	rf := NewRegisterFile(4)
	checkSummary(t, rf, "empty")
	if rf.MayMatch(0, 8) {
		t.Error("MayMatch on empty file = true")
	}

	rf.Set(1, Watchpoint{Addr: 0x2000, Size: 8, Types: Write, Armed: true, Owner: 1, LocalOf: -1})
	checkSummary(t, rf, "one armed")
	if lo, hi, _ := rf.Window(); lo != 0x2000 || hi != 0x2008 {
		t.Errorf("Window = [%#x, %#x), want [0x2000, 0x2008)", lo, hi)
	}

	rf.Set(3, Watchpoint{Addr: 0x1000, Size: 4, Types: Read, Armed: true, Owner: 2, LocalOf: -1})
	checkSummary(t, rf, "two armed")
	if lo, hi, _ := rf.Window(); lo != 0x1000 || hi != 0x2008 {
		t.Errorf("Window = [%#x, %#x), want [0x1000, 0x2008)", lo, hi)
	}

	// Clearing the register that defines the window's low edge must
	// shrink the window, not just decrement the count.
	rf.Clear(3)
	checkSummary(t, rf, "after clear")
	if lo, hi, _ := rf.Window(); lo != 0x2000 || hi != 0x2008 {
		t.Errorf("Window after Clear = [%#x, %#x), want [0x2000, 0x2008)", lo, hi)
	}

	// Overwriting an armed register with a disarmed value via Set.
	rf.Set(1, Watchpoint{Owner: -1, LocalOf: -1})
	checkSummary(t, rf, "all disarmed")
	if rf.ArmedCount() != 0 {
		t.Errorf("ArmedCount = %d, want 0", rf.ArmedCount())
	}
}

func TestCopyFromCopiesSummary(t *testing.T) {
	src := NewRegisterFile(4)
	src.Set(0, Watchpoint{Addr: 0x10, Size: 4, Types: Write, Armed: true, Owner: 3, LocalOf: -1})
	src.Set(2, Watchpoint{Addr: 0x40, Size: 8, Types: Read, Armed: true, Owner: 4, LocalOf: -1})
	dst := NewRegisterFile(4)
	dst.CopyFrom(src)
	checkSummary(t, dst, "after CopyFrom")
	if dst.ArmedCount() != 2 {
		t.Errorf("ArmedCount = %d, want 2", dst.ArmedCount())
	}
	// Disarm everything in the source and re-adopt: the summary must
	// follow, or a stale nonzero count would pin the VM off its fast path
	// forever.
	src.Clear(0)
	src.Clear(2)
	dst.CopyFrom(src)
	checkSummary(t, dst, "after re-CopyFrom")
	if dst.ArmedCount() != 0 {
		t.Errorf("ArmedCount after clearing source = %d, want 0", dst.ArmedCount())
	}
}

// Property: MayMatch is a sound filter for Match — whenever Match hits,
// MayMatch must have said "possible". (The converse need not hold: the
// window is a conservative over-approximation.)
func TestMayMatchSoundness(t *testing.T) {
	f := func(addrs [3]uint16, szSel [3]uint8, armedMask uint8, accAddr uint16, accSzSel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		rf := NewRegisterFile(3)
		for i := 0; i < 3; i++ {
			rf.Set(i, Watchpoint{
				Addr:    uint32(addrs[i]),
				Size:    sizes[szSel[i]%4],
				Types:   ReadWrite,
				Armed:   armedMask&(1<<i) != 0,
				Owner:   0,
				LocalOf: -1,
			})
		}
		asz := sizes[accSzSel%4]
		hit := rf.Match(99, uint32(accAddr), asz, Write) >= 0
		return !hit || rf.MayMatch(uint32(accAddr), asz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestSetIncrementalPaths drives Set through the summary's edge cases — arm
// into an empty file, arm extending each edge, arm strictly inside, disarm
// an interior register, disarm each edge register, and reprogram an armed
// register in place — checking the summary against the rescan oracle after
// every mutation.
func TestSetIncrementalPaths(t *testing.T) {
	arm := func(addr uint32, sz uint8) Watchpoint {
		return Watchpoint{Addr: addr, Size: sz, Types: ReadWrite, Armed: true, Owner: 0, LocalOf: -1}
	}
	rf := NewRegisterFile(4)

	rf.Set(0, arm(0x100, 8)) // first arm: window seeded exactly
	checkSummary(t, rf, "first arm")
	rf.Set(1, arm(0x80, 4)) // extends the low edge
	checkSummary(t, rf, "extend lo")
	rf.Set(2, arm(0x200, 8)) // extends the high edge
	checkSummary(t, rf, "extend hi")
	rf.Set(3, arm(0x180, 2)) // strictly interior: no edge change
	checkSummary(t, rf, "interior arm")

	rf.Clear(3) // interior disarm: the window stays
	checkSummary(t, rf, "interior disarm")
	if lo, hi, _ := rf.Window(); lo != 0x80 || hi != 0x208 {
		t.Errorf("Window after interior disarm = [%#x, %#x), want [0x80, 0x208)", lo, hi)
	}
	rf.Clear(1) // low-edge disarm: lo shrinks
	checkSummary(t, rf, "lo-edge disarm")
	if lo, _, _ := rf.Window(); lo != 0x100 {
		t.Errorf("lo after edge disarm = %#x, want 0x100", lo)
	}
	rf.Clear(2) // high-edge disarm: hi shrinks
	checkSummary(t, rf, "hi-edge disarm")
	if _, hi, _ := rf.Window(); hi != 0x108 {
		t.Errorf("hi after edge disarm = %#x, want 0x108", hi)
	}

	// Reprogram the sole armed register (old value defines both edges) to a
	// disjoint location: the window must move, not hull.
	rf.Set(0, arm(0x400, 4))
	checkSummary(t, rf, "reprogram in place")
	if lo, hi, _ := rf.Window(); lo != 0x400 || hi != 0x404 {
		t.Errorf("Window after reprogram = [%#x, %#x), want [0x400, 0x404)", lo, hi)
	}
	rf.Clear(0)
	checkSummary(t, rf, "last disarm")
	if rf.MayMatch(0x400, 4) {
		t.Error("MayMatch true after last disarm")
	}
}

// Property: after any random sequence of Set/Clear/CopyFrom the armed
// summary is identical to a fresh rescan of the registers (the satellite-2
// coherence property).
func TestSummaryCoherenceProperty(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	f := func(ops []uint32) bool {
		rf := NewRegisterFile(4)
		other := NewRegisterFile(4)
		for _, op := range ops {
			i := int(op>>2) % 4
			switch op % 3 {
			case 0:
				wp := Watchpoint{
					Addr:    (op >> 8) & 0xffff,
					Size:    sizes[(op>>24)%4],
					Types:   AccessType(op>>26)%3 + 1,
					Armed:   op&(1<<28) != 0,
					Owner:   0,
					LocalOf: -1,
				}
				rf.Set(i, wp)
				other.Set(3-i, wp)
			case 1:
				rf.Clear(i)
			case 2:
				rf.CopyFrom(other)
			}
			armed := 0
			var lo, hi uint32
			for _, wp := range rf.WPs {
				if !wp.Armed {
					continue
				}
				end := wp.Addr + uint32(wp.Size)
				if armed == 0 {
					lo, hi = wp.Addr, end
				} else {
					if wp.Addr < lo {
						lo = wp.Addr
					}
					if end > hi {
						hi = end
					}
				}
				armed++
			}
			gotLo, gotHi, ok := rf.Window()
			if rf.ArmedCount() != armed || ok != (armed > 0) {
				return false
			}
			if ok && (gotLo != lo || gotHi != hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMayMatchRange checks MayMatchRanges over a single interval.
func TestMayMatchRange(t *testing.T) {
	rf := NewRegisterFile(4)
	mayMatch := func(tid int, lo, hi uint32) bool {
		return rf.MayMatchRanges(tid, []AddrRange{{lo, hi}})
	}
	if mayMatch(0, 0, ^uint32(0)) {
		t.Error("empty file: MayMatchRanges = true")
	}
	rf.Set(0, Watchpoint{Addr: 0x1000, Size: 8, Types: Write, Armed: true, Owner: 1, LocalOf: -1})
	rf.Set(1, Watchpoint{Addr: 0x3000, Size: 4, Types: Read, Armed: true, Owner: 2, LocalOf: 2})

	if mayMatch(5, 0x2000, 0x3000) {
		t.Error("range between registers reported as possible match")
	}
	if !mayMatch(5, 0x1004, 0x1008) {
		t.Error("range inside register 0 reported disjoint")
	}
	if !mayMatch(5, 0, ^uint32(0)) {
		t.Error("whole address space reported disjoint")
	}
	// Types are ignored: a write-only register still forces the checked
	// path for a range (the predicate is type-blind by design).
	if !mayMatch(5, 0x0ff8, 0x1001) {
		t.Error("one-byte overlap with write-only register missed")
	}
	// Register 1 is LocalOf thread 2: exempt for it, live for others.
	if mayMatch(2, 0x3000, 0x3004) {
		t.Error("LocalOf thread not exempted")
	}
	if !mayMatch(5, 0x3000, 0x3004) {
		t.Error("remote thread not matched on register 1")
	}
	// Edges are half-open on both sides.
	if mayMatch(5, 0x1008, 0x2000) {
		t.Error("range starting at register end matched")
	}
	if mayMatch(5, 0x0f00, 0x1000) {
		t.Error("range ending at register start matched")
	}
}

// Property: MayMatchRanges is a sound filter for Match — if any access
// inside [lo, hi) by thread tid hits a register, MayMatchRanges over
// [lo, hi) must be true. This is the fast path's no-trap guarantee for footprint-disjoint
// blocks.
func TestMayMatchRangeSoundness(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	f := func(addrs [3]uint16, szSel [3]uint8, armedMask uint8, local int8,
		accAddr uint16, accSzSel uint8, span uint8, tid int8) bool {
		rf := NewRegisterFile(3)
		for i := 0; i < 3; i++ {
			rf.Set(i, Watchpoint{
				Addr:    uint32(addrs[i]),
				Size:    sizes[szSel[i]%4],
				Types:   ReadWrite,
				Armed:   armedMask&(1<<i) != 0,
				Owner:   0,
				LocalOf: int(local),
			})
		}
		asz := sizes[accSzSel%4]
		lo := uint32(accAddr)
		hi := lo + uint32(asz) + uint32(span)
		hit := rf.Match(int(tid), uint32(accAddr), asz, Write) >= 0
		return !hit || rf.MayMatchRanges(int(tid), []AddrRange{{lo, hi}})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSurveyMatchesPaperTable1(t *testing.T) {
	if len(Survey) != 5 {
		t.Fatalf("Survey has %d rows, want 5", len(Survey))
	}
	x86 := Survey[0]
	if x86.Arch != "x86" || x86.Num != 4 || x86.Timing != "After" || !x86.Support {
		t.Errorf("x86 row = %+v", x86)
	}
	if DefaultNumWatchpoints != x86.Num {
		t.Errorf("DefaultNumWatchpoints = %d, want %d", DefaultNumWatchpoints, x86.Num)
	}
}

func TestMayMatchRanges(t *testing.T) {
	rf := NewRegisterFile(4)
	all := []AddrRange{{0, ^uint32(0)}}
	if rf.MayMatchRanges(0, all) {
		t.Error("empty file: MayMatchRanges = true")
	}
	rf.Set(0, Watchpoint{Addr: 0x1000, Size: 8, Types: Write, Armed: true, Owner: 1, LocalOf: -1})
	rf.Set(1, Watchpoint{Addr: 0x3000, Size: 4, Types: Read, Armed: true, Owner: 2, LocalOf: 2})

	if rf.MayMatchRanges(5, []AddrRange{{0x2000, 0x3000}, {0x4000, 0x5000}}) {
		t.Error("disjoint range set reported as possible match")
	}
	if !rf.MayMatchRanges(5, []AddrRange{{0x2000, 0x3000}, {0x1004, 0x1008}}) {
		t.Error("second range overlapping register 0 missed")
	}
	// LocalOf exemption applies per thread, across the whole set.
	if rf.MayMatchRanges(2, []AddrRange{{0x3000, 0x3004}}) {
		t.Error("LocalOf thread not exempted")
	}
	if !rf.MayMatchRanges(5, []AddrRange{{0x3000, 0x3004}}) {
		t.Error("remote thread not matched on register 1")
	}
	// Half-open on both sides.
	if rf.MayMatchRanges(5, []AddrRange{{0x1008, 0x2000}, {0x0f00, 0x1000}}) {
		t.Error("touching-but-disjoint ranges matched")
	}
	if rf.MayMatchRanges(5, nil) {
		t.Error("empty range set matched")
	}
}

// Property: MayMatchRanges is exactly "some armed register not local to
// tid overlaps some interval", checked against a plain scan over every
// (register, interval) pair.
func TestMayMatchRangesEquivalence(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	f := func(addrs [3]uint16, szSel [3]uint8, armedMask uint8, local int8,
		r1lo, r1span, r2lo, r2span uint16, tid int8) bool {
		rf := NewRegisterFile(3)
		for i := 0; i < 3; i++ {
			rf.Set(i, Watchpoint{
				Addr:    uint32(addrs[i]),
				Size:    sizes[szSel[i]%4],
				Types:   ReadWrite,
				Armed:   armedMask&(1<<i) != 0,
				Owner:   0,
				LocalOf: int(local),
			})
		}
		ranges := []AddrRange{
			{uint32(r1lo), uint32(r1lo) + uint32(r1span)},
			{uint32(r2lo), uint32(r2lo) + uint32(r2span)},
		}
		want := false
		for _, wp := range rf.WPs {
			for _, r := range ranges {
				if wp.Armed && wp.LocalOf != int(tid) &&
					r.Lo < wp.Addr+uint32(wp.Size) && wp.Addr < r.Hi {
					want = true
				}
			}
		}
		return rf.MayMatchRanges(int(tid), ranges) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestAdoptProperty quick-checks Adopt: a canonical file takes a random
// sequence of Set/Clear (some of them rewriting a register with its own
// value) and epoch bumps while two follower files adopt it at random
// points. After every adoption the follower must equal a CopyFrom clone of
// the canonical file, its armed summary must equal a from-scratch
// recompute, and Adopt must have copied exactly when a register's content
// changed since that follower's last adoption — and then the canonical
// mutation count moved.
func TestAdoptProperty(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	summary := func(rf *RegisterFile) (int, uint32, uint32) {
		armed := 0
		var lo, hi uint32
		for _, wp := range rf.WPs {
			if !wp.Armed {
				continue
			}
			end := wp.Addr + uint32(wp.Size)
			if armed == 0 {
				lo, hi = wp.Addr, end
			} else {
				lo, hi = min(lo, wp.Addr), max(hi, end)
			}
			armed++
		}
		return armed, lo, hi
	}
	same := func(a, b *RegisterFile) bool {
		for j := range a.WPs {
			if a.WPs[j] != b.WPs[j] {
				return false
			}
		}
		aLo, aHi, aok := a.Window()
		bLo, bHi, bok := b.Window()
		return a.Epoch == b.Epoch && a.Muts() == b.Muts() && a.ArmedCount() == b.ArmedCount() &&
			aok == bok && (!aok || aLo == bLo && aHi == bHi)
	}
	f := func(ops []uint32) bool {
		const n = 4
		canon := NewRegisterFile(n)
		var fol [2]*RegisterFile
		var moved [2]bool      // a register changed since the follower's last adoption
		var lastMuts [2]uint64 // canonical Muts at the follower's last adoption
		for k := range fol {
			fol[k] = NewRegisterFile(n)
		}
		set := func(i int, wp Watchpoint) {
			if wp != canon.WPs[i] {
				moved = [2]bool{true, true}
			}
			canon.Set(i, wp)
		}
		adopt := func(k int) bool {
			if moved[k] != (canon.Muts() != lastMuts[k]) {
				return false
			}
			if fol[k].Adopt(canon) != moved[k] {
				return false
			}
			moved[k], lastMuts[k] = false, canon.Muts()
			ref := NewRegisterFile(n)
			ref.CopyFrom(canon)
			if !same(fol[k], ref) {
				return false
			}
			armed, lo, hi := summary(fol[k])
			gotLo, gotHi, ok := fol[k].Window()
			return fol[k].ArmedCount() == armed && ok == (armed > 0) && (!ok || gotLo == lo && gotHi == hi)
		}
		for _, op := range ops {
			i := int(op>>2) % n
			switch op % 6 {
			case 0, 1:
				set(i, Watchpoint{
					Addr:    (op >> 8) & 0xffff,
					Size:    sizes[(op>>24)%4],
					Types:   AccessType(op>>26)%3 + 1,
					Armed:   op&(1<<28) != 0,
					Owner:   0,
					LocalOf: -1,
				})
			case 2:
				set(i, Watchpoint{Owner: -1, LocalOf: -1}) // Clear's value
			case 3:
				set(i, canon.WPs[i]) // an equal value: no mutation
			case 4:
				canon.Epoch++
			case 5:
				if !adopt(int(op>>4) % 2) {
					return false
				}
			}
		}
		// Final adoptions so every sequence checks at least once.
		return adopt(0) && adopt(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
