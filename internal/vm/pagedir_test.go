package vm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/kernel"
)

// TestPageDirectoryProperty drives a random sequence of stores, captures
// and restores to any earlier capture across two machines built from one
// binary. After every restore, memory must be byte-identical to a flat
// copy taken at that capture, whichever machine took it.
func TestPageDirectoryProperty(t *testing.T) {
	bin := buildSrc(t, snapSrc, compileOptsAnnotated())
	ms := []*Machine{newSnapMachineOn(t, bin, headRunnable), newSnapMachineOn(t, bin, headRunnable)}
	rng := rand.New(rand.NewSource(1))
	sizes := []uint8{1, 2, 4, 8}
	// A few hot pages, some straddling a chunk boundary, plus the whole
	// address space: stores both revisit and spread.
	hot := []uint32{0, 3 * pageSize, chunkPages*pageSize - 4, 40 * chunkPages * pageSize, compile.MemSize - 8}
	var snaps []*Snapshot
	var flats [][][]byte
	restores := 0
	for step := 0; step < 2000; step++ {
		m := ms[rng.Intn(len(ms))]
		switch op := rng.Intn(10); {
		case op < 6:
			addr := uint32(rng.Intn(int(compile.MemSize) - 8))
			if rng.Intn(2) == 0 {
				addr = hot[rng.Intn(len(hot))] + uint32(rng.Intn(8))
				if addr > compile.MemSize-8 {
					addr = compile.MemSize - 8
				}
			}
			m.Store(addr, sizes[rng.Intn(len(sizes))], rng.Uint64())
		case op < 8:
			s, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var prev [][]byte
			if len(flats) > 0 {
				prev = flats[len(flats)-1]
			}
			snaps = append(snaps, s)
			flats = append(flats, flatCopy(m.Mem, prev))
		default:
			if len(snaps) == 0 {
				continue
			}
			k := rng.Intn(len(snaps))
			m.Restore(snaps[k])
			restores++
			for p, pg := range flats[k] {
				if !bytes.Equal(m.Mem[p<<pageShift:(p+1)<<pageShift], pg) {
					t.Fatalf("step %d: page %d after restoring capture %d differs from its flat copy", step, p, k)
				}
			}
		}
	}
	if restores < 100 || len(snaps) < 100 {
		t.Fatalf("only %d captures and %d restores; the property is barely exercised", len(snaps), restores)
	}
}

// flatCopy copies the whole image page by page, independently of the
// page directory. Pages equal to prev's share its copy, which bounds the
// test's memory without trusting the code under test.
func flatCopy(mem []byte, prev [][]byte) [][]byte {
	pages := make([][]byte, numPages)
	for p := range pages {
		pg := mem[p<<pageShift : (p+1)<<pageShift]
		if prev != nil && bytes.Equal(prev[p], pg) {
			pages[p] = prev[p]
		} else {
			pages[p] = append([]byte(nil), pg...)
		}
	}
	return pages
}

// TestSnapshotSharesCleanChunks: a capture after a single store publishes
// exactly one new chunk holding one new page, and shares the other 63
// chunks with the previous capture by pointer.
func TestSnapshotSharesCleanChunks(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	s1, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Bin.Globals["counter"]
	m.Store(addr, 8, 42)
	s2, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var fresh []int
	for c := range s1.pages {
		if s1.pages[c] != s2.pages[c] {
			fresh = append(fresh, c)
		}
	}
	want := int(addr >> pageShift >> chunkShift)
	if len(fresh) != 1 || fresh[0] != want {
		t.Fatalf("chunks republished: %v, want only chunk %d", fresh, want)
	}
	newPages := 0
	for j := range s1.pages[want] {
		if !samePage(s1.pages[want][j], s2.pages[want][j]) {
			newPages++
		}
	}
	if newPages != 1 {
		t.Fatalf("the store's chunk has %d new pages, want 1", newPages)
	}
}

// TestReleaseRecyclesZeroImage: Release must leave the pooled image all
// zero, so a machine built on a recycled image hashes like one built on a
// fresh image. The released machine leaves pages in every state Release
// has to clear: captured and clean, dirty in a captured chunk, and dirty
// in a chunk that still shares the zero chunk.
func TestReleaseRecyclesZeroImage(t *testing.T) {
	bin := buildSrc(t, snapSrc, compileOptsAnnotated())
	fresh := newPlainMachine(t, bin).MemHash()
	for try := 0; try < 20; try++ {
		a := newSnapMachineOn(t, bin, headRunnable)
		if res := a.Run(); res.Reason != "completed" {
			t.Fatalf("reason = %q", res.Reason)
		}
		if _, err := a.Snapshot(); err != nil {
			t.Fatal(err)
		}
		a.Store(a.Bin.Globals["counter"], 8, 7)
		a.Store(compile.MemSize-8, 8, 9)
		img := &a.Mem[0]
		a.Release()
		b := newSnapMachineOn(t, bin, headRunnable)
		if &b.Mem[0] != img {
			continue // the pool may drop an item; try again
		}
		if got := b.MemHash(); got != fresh {
			t.Fatalf("machine on a recycled image hashes %#x, on a fresh image %#x", got, fresh)
		}
		return
	}
	t.Fatal("no machine received a recycled image in 20 tries")
}

// newPlainMachine builds newSnapMachine's machine without snapshot support,
// so its image is freshly allocated rather than pooled.
func newPlainMachine(t *testing.T, bin *compile.Binary) *Machine {
	t.Helper()
	k := kernel.New(kernel.Config{Mode: kernel.Prevention, Opt: kernel.OptBase, NumWatchpoints: 4, TimeoutTicks: 10000}, nil, nil, nil)
	m, err := New(bin, k, Config{Cores: 1, Seed: 1, MaxTicks: 5_000_000, Dispatch: DispatchStep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReleasedMachineRefusesUse: a released machine must not silently run
// on, or restore into, an image it no longer owns.
func TestReleasedMachineRefusesUse(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release() // a second Release is a no-op
	for _, tc := range []struct {
		op string
		fn func()
	}{
		{"Run", func() { m.Run() }},
		{"Restore", func() { m.Restore(snap) }},
	} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if r == nil || !strings.Contains(msg, "Release") || !strings.Contains(msg, tc.op) {
					t.Errorf("%s on a released machine: recovered %v, want a panic naming Release and %s", tc.op, r, tc.op)
				}
			}()
			tc.fn()
		}()
	}
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "Release") {
		t.Errorf("Snapshot on a released machine: err = %v, want one naming Release", err)
	}
}
