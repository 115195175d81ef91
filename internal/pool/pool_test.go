package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// countSpawns routes the pool's spawn hook into a counter for the duration
// of fn.
func countSpawns(t *testing.T, fn func()) int64 {
	t.Helper()
	var n int64
	onSpawn = func() { atomic.AddInt64(&n, 1) }
	defer func() { onSpawn = nil }()
	fn()
	return atomic.LoadInt64(&n)
}

// TestSerialFastPathSpawnsNoGoroutines asserts the workers==1 path runs
// every job on the calling goroutine while still slotting results by job
// index.
func TestSerialFastPathSpawnsNoGoroutines(t *testing.T) {
	jobs := make([]func() (int, error), 10)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) { return i * i, nil }
	}
	var res []int
	var err error
	spawned := countSpawns(t, func() { res, err = Run(1, jobs) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spawned != 0 {
		t.Fatalf("serial fast path spawned %d goroutines, want 0", spawned)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}

	// The concurrent path does spawn — the hook sees every worker.
	spawned = countSpawns(t, func() { res, err = Run(4, jobs) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spawned != 4 {
		t.Fatalf("concurrent path spawned %d goroutines, want 4", spawned)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("concurrent result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestLowestIndexedErrorMatchesSerial asserts both paths report the error
// of the lowest-indexed failing job, regardless of completion order.
func TestLowestIndexedErrorMatchesSerial(t *testing.T) {
	mkJobs := func() []func() (int, error) {
		jobs := make([]func() (int, error), 8)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) {
				if i == 3 || i == 6 {
					return 0, fmt.Errorf("job %d failed", i)
				}
				return i, nil
			}
		}
		return jobs
	}
	_, serialErr := Run(1, mkJobs())
	if serialErr == nil || serialErr.Error() != "job 3 failed" {
		t.Fatalf("serial error = %v, want job 3 failed", serialErr)
	}
	for _, workers := range []int{2, 4, 8} {
		_, err := Run(workers, mkJobs())
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("workers=%d error = %v, want %v", workers, err, serialErr)
		}
	}
}

// TestSerialStopsAtFirstError asserts the fast path does not run jobs past
// the failure, matching the pre-pool harness.
func TestSerialStopsAtFirstError(t *testing.T) {
	ran := make([]bool, 5)
	jobs := make([]func() (int, error), 5)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			ran[i] = true
			if i == 2 {
				return 0, errors.New("boom")
			}
			return i, nil
		}
	}
	if _, err := Run(1, jobs); err == nil {
		t.Fatal("expected error")
	}
	want := []bool{true, true, true, false, false}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran = %v, want %v", ran, want)
		}
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := Workers(-2); got < 1 {
		t.Fatalf("Workers(-2) = %d, want >= 1", got)
	}
}

func TestEmptyJobs(t *testing.T) {
	res, err := Run[int](4, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("Run(4, nil) = %v, %v", res, err)
	}
}

// TestRunBoundsConcurrency asserts Run never has more jobs in flight than
// the requested worker count.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	jobs := make([]func() (int, error), 24)
	for i := range jobs {
		jobs[i] = func() (int, error) {
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			active.Add(-1)
			return i, nil
		}
	}
	if _, err := Run(workers, jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}
