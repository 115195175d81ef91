package vm

import (
	"strings"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/isa"
	"kivati/internal/kernel"
	"kivati/internal/valrange"
)

// TestOutOfRangeRegisterRejected: a binary naming a register past R15 is
// refused with an error by every consumer of decoded code, instead of
// indexing a 16-entry register file out of range.
func TestOutOfRangeRegisterRejected(t *testing.T) {
	// MOVQ R200, 7; HLT
	code := []byte{byte(isa.OpMOVQ), 200, 7, 0, 0, 0, 0, 0, 0, 0, byte(isa.OpHLT)}
	entries := []uint32{0}
	checkErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted register R200", what)
		} else if !strings.Contains(err.Error(), "pc 0x0") {
			t.Errorf("%s: error %q does not name the pc", what, err)
		}
	}
	_, err := compile.FootprintsAnalyzed(code, entries)
	checkErr("compile.FootprintsAnalyzed", err)
	_, err = valrange.Analyze(code, entries, valrange.Options{})
	checkErr("valrange.Analyze", err)
	bin := &compile.Binary{
		Code:        code,
		Funcs:       map[string]uint32{"main": 0},
		FuncEntries: entries,
		Globals:     map[string]uint32{},
		InitMem:     map[uint32]int64{},
		SyncVars:    map[string]bool{},
	}
	k := kernel.New(kernel.Config{Mode: kernel.Prevention, NumWatchpoints: 4}, nil, nil, nil)
	_, err = New(bin, k, Config{Cores: 1, Seed: 1, MaxTicks: 1000})
	checkErr("vm.New", err)
}

// TestShortFootprintTableRejected: a binary whose footprint table does not
// cover its code is refused by New with an error, instead of indexing the
// table out of range while building the superblock table.
func TestShortFootprintTableRejected(t *testing.T) {
	code := []byte{byte(isa.OpNOP), byte(isa.OpNOP), byte(isa.OpHLT)}
	bin := &compile.Binary{
		Code:       code,
		Footprints: make([]isa.Footprint, 1),
		Funcs:      map[string]uint32{"main": 0},
		Globals:    map[string]uint32{},
		InitMem:    map[uint32]int64{},
		SyncVars:   map[string]bool{},
	}
	k := kernel.New(kernel.Config{Mode: kernel.Prevention, NumWatchpoints: 4}, nil, nil, nil)
	if _, err := New(bin, k, Config{Cores: 1, Seed: 1, MaxTicks: 1000}); err == nil || !strings.Contains(err.Error(), "footprint table") {
		t.Errorf("New with a 1-entry footprint table for 3 code bytes: err = %v, want a footprint table error", err)
	}
}
