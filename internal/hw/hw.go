// Package hw simulates the hardware watchpoint (debug register) facility
// Kivati builds on. It mirrors the x86 model the paper targets: each core
// has four watchpoint registers (DR0–DR3 equivalents), each configured with
// an address, an access width of 1, 2, 4 or 8 bytes, and the access types to
// trap on; the trap is delivered *after* the triggering instruction has
// committed its effects, which is what forces the kernel's undo machinery.
//
// The register count is configurable so the Table 9 watchpoint-sweep
// experiment (2–12 registers) can run on the same code path.
package hw

import "fmt"

// AccessType is a bitmask of memory access kinds.
type AccessType uint8

const (
	Read  AccessType = 1 << iota // load from memory
	Write                        // store to memory

	ReadWrite = Read | Write
)

func (t AccessType) String() string {
	switch t {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	case 0:
		return "-"
	}
	return fmt.Sprintf("AccessType(%d)", uint8(t))
}

// DefaultNumWatchpoints is the number of debug registers on x86 (DR0–DR3).
const DefaultNumWatchpoints = 4

// Watchpoint is one debug register's configuration.
type Watchpoint struct {
	Addr    uint32     // watched address
	Size    uint8      // watched width: 1, 2, 4 or 8 bytes
	Types   AccessType // access kinds that trap
	Armed   bool       // register is in use
	Owner   int        // thread ID whose ARs own this register (-1 if none)
	LocalOf int        // thread whose accesses are exempt (-1 = none; optimization 3)
}

// ValidSize reports whether sz is a width the hardware can watch.
func ValidSize(sz uint8) bool {
	return sz == 1 || sz == 2 || sz == 4 || sz == 8
}

// overlaps reports whether [a, a+an) intersects [b, b+bn).
func overlaps(a uint32, an uint8, b uint32, bn uint8) bool {
	return a < b+uint32(bn) && b < a+uint32(an)
}

// RegisterFile is the set of watchpoint registers on one core.
//
// Alongside the registers themselves it keeps an armed-access summary — the
// armed-register count and the address window covered by the armed
// registers — which Set recomputes on every change and CopyFrom copies (the
// only mutation paths; the kernel's begin_atomic/end_atomic/clear_ar
// handlers and trap paths all program registers through Set/Clear). The
// summary collapses the common-case per-access watchpoint check to a single
// predicate when nothing is armed or the access falls outside the armed
// window, and is what the VM's tiered fast path consults to decide whether
// a core may execute trap-free.
//
// muts counts content mutations of the file. A core's file changes only
// through CopyFrom and Adopt from the kernel's canonical file, so it carries
// the canonical count it last copied, and Adopt skips the copy when the two
// counts still agree.
type RegisterFile struct {
	WPs   []Watchpoint
	Epoch uint64 // version of the canonical register state this core holds

	armed  int    // number of armed registers (summary)
	lo, hi uint32 // armed address window [lo, hi); valid only when armed > 0
	muts   uint64
}

// NewRegisterFile returns a register file with n watchpoints.
func NewRegisterFile(n int) *RegisterFile {
	return &RegisterFile{WPs: make([]Watchpoint, n)}
}

// recompute rebuilds the armed summary from the registers.
func (rf *RegisterFile) recompute() {
	rf.armed = 0
	rf.lo, rf.hi = 0, 0
	for i := range rf.WPs {
		wp := &rf.WPs[i]
		if !wp.Armed {
			continue
		}
		end := wp.Addr + uint32(wp.Size)
		if rf.armed == 0 {
			rf.lo, rf.hi = wp.Addr, end
		} else {
			if wp.Addr < rf.lo {
				rf.lo = wp.Addr
			}
			if end > rf.hi {
				rf.hi = end
			}
		}
		rf.armed++
	}
}

// Set programs register i and recomputes the armed summary. Set panics on
// an invalid register index or size; programming the debug registers is a
// privileged, kernel-only operation and a bad argument is a kernel bug, not
// a recoverable condition.
func (rf *RegisterFile) Set(i int, wp Watchpoint) {
	if i < 0 || i >= len(rf.WPs) {
		panic(fmt.Sprintf("hw: watchpoint index %d out of range [0,%d)", i, len(rf.WPs)))
	}
	if wp.Armed && !ValidSize(wp.Size) {
		panic(fmt.Sprintf("hw: invalid watchpoint size %d", wp.Size))
	}
	if wp == rf.WPs[i] {
		return
	}
	rf.muts++
	rf.WPs[i] = wp
	rf.recompute()
}

// Clear disarms register i.
func (rf *RegisterFile) Clear(i int) {
	rf.Set(i, Watchpoint{Owner: -1, LocalOf: -1})
}

// CopyFrom makes rf an exact clone of src: registers, summary, epoch and
// mutation count. It is Adopt's copy and the primitive snapshots use.
func (rf *RegisterFile) CopyFrom(src *RegisterFile) {
	copy(rf.WPs, src.WPs)
	rf.Epoch = src.Epoch
	rf.armed, rf.lo, rf.hi = src.armed, src.lo, src.hi
	rf.muts = src.muts
}

// Adopt brings rf up to date with the canonical file src (cross-core
// propagation; the paper's opportunistic update on kernel entry) and
// reports whether it copied. When the mutation counts agree, rf already
// holds src's registers and only the epoch is taken.
func (rf *RegisterFile) Adopt(src *RegisterFile) (copied bool) {
	if rf.muts == src.muts {
		rf.Epoch = src.Epoch
		return false
	}
	rf.CopyFrom(src)
	return true
}

// Muts returns the file's content-mutation count: it changes exactly when
// register content changes, so equality of Muts values taken from the same
// file lineage certifies identical register content.
func (rf *RegisterFile) Muts() uint64 { return rf.muts }

// ArmedCount returns the number of armed registers.
func (rf *RegisterFile) ArmedCount() int { return rf.armed }

// Window returns the address window [lo, hi) covered by the armed registers.
// ok is false when nothing is armed (the window is then meaningless).
func (rf *RegisterFile) Window() (lo, hi uint32, ok bool) {
	return rf.lo, rf.hi, rf.armed > 0
}

// MayMatch is the armed-access summary predicate: it reports whether an
// access to [addr, addr+sz) could possibly hit an armed register. False
// means no Match call is needed; true means the per-register scan must run.
func (rf *RegisterFile) MayMatch(addr uint32, sz uint8) bool {
	return rf.armed != 0 && addr < rf.hi && rf.lo < addr+uint32(sz)
}

// AddrRange is a half-open address interval [Lo, Hi), the unit of the
// disjointness predicate MayMatchRanges.
type AddrRange struct {
	Lo, Hi uint32
}

// MayMatchRanges reports whether any access by thread tid inside any of
// the given intervals could hit an armed register. It is the
// footprint-vs-window disjointness predicate behind the VM's
// watchpoint-aware fast path: false means a straight-line run confined to
// the intervals provably cannot trap on this core, whatever the access
// types, so the run may retire without per-access checks. Registers whose
// LocalOf equals tid are exempt, mirroring Match. Access types are ignored
// (conservative: a read-only watchpoint still forces the checked path for
// a range that only writes). A block footprint has up to three components
// (absolute, SP-relative, FP-relative evaluated against live registers);
// scanning the register file once for all of them keeps the block-edge
// decision O(registers), not O(registers × components).
func (rf *RegisterFile) MayMatchRanges(tid int, ranges []AddrRange) bool {
	if rf.armed == 0 {
		return false
	}
	hit := false
	for _, r := range ranges {
		if r.Lo < rf.hi && rf.lo < r.Hi {
			hit = true
			break
		}
	}
	if !hit {
		return false
	}
	for i := range rf.WPs {
		wp := &rf.WPs[i]
		if !wp.Armed || wp.LocalOf == tid {
			continue
		}
		end := wp.Addr + uint32(wp.Size)
		for _, r := range ranges {
			if r.Lo < end && wp.Addr < r.Hi {
				return true
			}
		}
	}
	return false
}

// Match checks an access (addr, size sz, type t) performed by thread tid
// against the armed registers and returns the index of the first register
// that traps, or -1. A register whose LocalOf equals tid does not trap
// (optimization 3: watchpoints are disabled during execution of the local
// thread that owns the AR). The armed summary short-circuits the scan when
// nothing armed can overlap the access.
func (rf *RegisterFile) Match(tid int, addr uint32, sz uint8, t AccessType) int {
	if rf.armed == 0 || addr >= rf.hi || addr+uint32(sz) <= rf.lo {
		return -1
	}
	for i := range rf.WPs {
		wp := &rf.WPs[i]
		if !wp.Armed || wp.Types&t == 0 {
			continue
		}
		if wp.LocalOf == tid {
			continue
		}
		if overlaps(addr, sz, wp.Addr, wp.Size) {
			return i
		}
	}
	return -1
}

// FreeIndex returns the index of a disarmed register, or -1 if all are in
// use — the condition under which Kivati logs a missed AR. The armed count
// answers a full file without a scan.
func (rf *RegisterFile) FreeIndex() int {
	if rf.armed == len(rf.WPs) {
		return -1
	}
	for i := range rf.WPs {
		if !rf.WPs[i].Armed {
			return i
		}
	}
	return -1
}

// ArchInfo is one row of the paper's Table 1 hardware watchpoint survey.
type ArchInfo struct {
	Arch    string
	Support bool
	Num     int
	Timing  string // whether the trap is delivered before or after the access
}

// Survey reproduces Table 1 of the paper.
var Survey = []ArchInfo{
	{Arch: "x86", Support: true, Num: 4, Timing: "After"},
	{Arch: "SPARC", Support: true, Num: 2, Timing: "Before"},
	{Arch: "MIPS", Support: true, Num: 1, Timing: "Depends on inst."},
	{Arch: "ARM", Support: true, Num: 2, Timing: "After"},
	{Arch: "PowerPC", Support: true, Num: 1, Timing: ""},
}
