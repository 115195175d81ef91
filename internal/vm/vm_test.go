package vm

import (
	"testing"

	"kivati/internal/compile"
)

func TestArithmeticAndPrint(t *testing.T) {
	src := `
void main() {
    int a;
    int b;
    a = 6;
    b = 7;
    print(a * b);
    print(a - b);
    print(a / b);
    print(-a % 4);
    print((a < b) + 2 * (a == 6));
}`
	_, res := run(t, src, defaultRunOpts())
	want := []int64{42, -1, 0, -2, 3}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
	if res.Reason != "completed" {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
void main() {
    int i;
    int sum;
    i = 0;
    sum = 0;
    while (i < 10) {
        if (i % 2 == 0) {
            sum = sum + i;
        } else {
            sum = sum - 1;
        }
        i = i + 1;
    }
    print(sum);
}`
	_, res := run(t, src, defaultRunOpts())
	if len(res.Output) != 1 || res.Output[0] != 15 {
		t.Errorf("output = %v, want [15]", res.Output)
	}
}

func TestFunctionCallsAndRecursion(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
void main() {
    print(fib(12));
}`
	_, res := run(t, src, defaultRunOpts())
	if len(res.Output) != 1 || res.Output[0] != 144 {
		t.Errorf("fib(12) = %v, want 144", res.Output)
	}
}

func TestGlobalsArraysPointers(t *testing.T) {
	src := `
int g = 5;
int arr[4];
int *p;
void main() {
    int i;
    i = 0;
    while (i < 4) {
        arr[i] = i * 10;
        i = i + 1;
    }
    p = &g;
    *p = *p + arr[3];
    print(g);
    print(arr[2]);
}`
	_, res := run(t, src, defaultRunOpts())
	if len(res.Output) != 2 || res.Output[0] != 35 || res.Output[1] != 20 {
		t.Errorf("output = %v, want [35 20]", res.Output)
	}
}

func TestSpawnAndSharedCounterWithLock(t *testing.T) {
	src := `
int counter;
int lk;
int started;
void worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        lock(lk);
        counter = counter + 1;
        unlock(lk);
        i = i + 1;
    }
    lock(lk);
    started = started + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 50);
    spawn(worker, 50);
    worker(50);
    while (started < 3) {
        yield();
    }
    print(counter);
}`
	_, res := run(t, src, defaultRunOpts())
	if len(res.Output) != 1 || res.Output[0] != 150 {
		t.Errorf("counter = %v, want [150]", res.Output)
	}
}

func TestSleepAndNanos(t *testing.T) {
	src := `
void main() {
    int t0;
    int t1;
    t0 = nanos();
    sleep(1000);
    t1 = nanos();
    print(t1 - t0 >= 1000);
}`
	_, res := run(t, src, defaultRunOpts())
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Errorf("sleep did not advance time: %v", res.Output)
	}
}

func TestRandDeterministic(t *testing.T) {
	src := `
void main() {
    print(rand());
    print(rand());
}`
	o := defaultRunOpts()
	_, r1 := run(t, src, o)
	_, r2 := run(t, src, o)
	if len(r1.Output) != 2 || r1.Output[0] == r1.Output[1] {
		t.Errorf("rand output suspicious: %v", r1.Output)
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Errorf("rand not deterministic across same-seed runs")
		}
	}
}

func TestVanillaBinaryRuns(t *testing.T) {
	src := `
int s;
void main() {
    int t;
    t = s;
    s = t + 1;
    print(s);
}`
	o := defaultRunOpts()
	o.compile = compile.Options{Annotate: false}
	_, res := run(t, src, o)
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Errorf("output = %v", res.Output)
	}
	if res.Stats.Begins != 0 || res.Stats.Ends != 0 {
		t.Errorf("vanilla run executed annotations: %+v", res.Stats)
	}
}

func TestAnnotatedSameResult(t *testing.T) {
	// The Kivati machinery must not change program semantics.
	src := `
int s;
int lk;
void main() {
    int i;
    i = 0;
    while (i < 100) {
        s = s + i;
        i = i + 1;
    }
    print(s);
}`
	o := defaultRunOpts()
	_, res := run(t, src, o)
	if len(res.Output) != 1 || res.Output[0] != 4950 {
		t.Errorf("annotated output = %v, want [4950]", res.Output)
	}
	if res.Stats.Begins == 0 {
		t.Error("no begin_atomic executed; annotation path untested")
	}
}

func TestMaxTicksStopsRunaway(t *testing.T) {
	src := `
int f;
void main() {
    while (f == 0) {
        yield();
    }
}`
	o := defaultRunOpts()
	o.mcfg.MaxTicks = 100_000
	_, res := run(t, src, o)
	if res.Reason != "max-ticks" {
		t.Errorf("reason = %q, want max-ticks", res.Reason)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	src := `
int z;
void main() {
    print(5 / z);
}`
	o := defaultRunOpts()
	bin := buildSrc(t, src, o.compile)
	k := newTestKernel(o)
	m, err := New(bin, k, o.mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if len(res.Faults) != 1 {
		t.Errorf("faults = %v, want one division fault", res.Faults)
	}
}

func TestRequestsServed(t *testing.T) {
	src := `
void server(int n) {
    int i;
    int req;
    i = 0;
    while (i < n) {
        req = recv();
        send(req);
        i = i + 1;
    }
}
void main() {
    spawn(server, 10);
    server(10);
}`
	o := defaultRunOpts()
	o.mcfg.Requests = &RequestConfig{MeanInterarrival: 500, Count: 20}
	_, res := run(t, src, o)
	if len(res.Latencies) != 20 {
		t.Errorf("served %d requests, want 20", len(res.Latencies))
	}
	for _, l := range res.Latencies {
		if l == 0 {
			t.Error("zero latency recorded")
		}
	}
}

func TestDeterministicExecution(t *testing.T) {
	src := `
int s;
int done;
void w(int id) {
    int i;
    i = 0;
    while (i < 200) {
        s = s + id;
        i = i + 1;
    }
    done = done + 1;
}
void main() {
    spawn(w, 1);
    spawn(w, 2);
    while (done < 2) {
        yield();
    }
    print(s);
}`
	o := defaultRunOpts()
	_, r1 := run(t, src, o)
	_, r2 := run(t, src, o)
	if r1.Ticks != r2.Ticks || len(r1.Output) != len(r2.Output) {
		t.Errorf("same-seed runs differ: %d vs %d ticks", r1.Ticks, r2.Ticks)
	}
	o.mcfg.Seed = 99
	_, r3 := run(t, src, o)
	_ = r3 // different seed may differ; just must not crash
}
