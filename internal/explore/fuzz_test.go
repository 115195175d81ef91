package explore

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzMaxTicks is the longest run FuzzReadTrace replays: the engine's
// default cap. A trace that passes validation with a larger max_ticks is
// legal but would spend the fuzz budget on one input, so it is skipped;
// TestReplayRejectsMalformedTrace covers the validation bound itself.
const fuzzMaxTicks = 4_000_000

// FuzzReadTrace feeds mutated trace JSON through ReadTrace and Replay,
// seeded from two recorded corpus traces: a v1 trace and a v3 trace that
// carries the annotator options. Whatever the bytes, neither may
// panic, and each must either succeed with a result or reject the input
// with an error.
func FuzzReadTrace(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "trace_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	annotated, err := os.ReadFile(filepath.Join("testdata", "trace_v3_optimized.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(annotated)
	f.Add([]byte(`{}`))
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(path)
		if (tr == nil) == (err == nil) {
			t.Fatalf("ReadTrace returned trace %v and error %v", tr, err)
		}
		if err != nil {
			return
		}
		if tr.MaxTicks > fuzzMaxTicks && tr.MaxTicks <= maxTraceTicks {
			t.Skipf("max_ticks %d above the fuzz budget", tr.MaxTicks)
		}
		res, err := Replay(tr)
		if (res == nil) == (err == nil) {
			t.Fatalf("Replay returned result %v and error %v", res, err)
		}
	})
}
