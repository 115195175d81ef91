// Command bench is the repository benchmark. It times the five jobs users
// run — protected runs (protect), random and DFS schedule exploration
// (explore, dfs), the generated-corpus soak (soak) and program builds
// (build) — end to end, and splits each into layers by timing calls into
// the public functions of internal/{minic,annotate,compile,core,vm,explore,
// corpusgen} and reading the counters those calls return.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -compare base.jsonl head.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	record   string
	quick    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "all", "workload to run: "+workloadNames()+" or all")
	fs.Int64Var(&c.seed, "seed", 1, "input seed: every generated input derives from it")
	fs.Float64Var(&c.seconds, "seconds", 15, "length of the measured phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	fs.StringVar(&c.traceOut, "trace-out", "", "trace-event JSON output of a traced run (default .bench_build/trace-<workload>.json)")
	fs.StringVar(&c.record, "record", "", "append this run's result, tagged with workload and seed, to a JSON-lines file for -compare")
	fs.BoolVar(&c.quick, "quick", false, "tiny inputs, for smoke tests only")
	compare := fs.Bool("compare", false, "compare two -record files with the bounds in BENCHMARK.json: bench -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	c.trace = traceFlag == 1
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if c.workload == "all" {
		return runAll(c, args, stdout, stderr)
	}
	w, ok := workloadByName(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", c.workload, workloadNames())
		return 2
	}
	res, err := runWorkload(w, c, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", c.workload, err)
		return 1
	}
	if err := emit(c, res, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d items failed their output checks\n", c.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// emit prints the result line and appends it to the record file.
func emit(c config, res *result, stdout io.Writer) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if c.record == "" {
		return nil
	}
	rec, err := json.Marshal(record{Workload: c.workload, Seed: c.seed, Trace: c.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(c.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll re-runs this binary once per workload, so that set-up time and
// peak memory belong to one workload, and ends with a combined line whose
// metrics are keyed <workload>.<metric>.
func runAll(c config, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	total := &result{Correct: true, Metrics: map[string]value{}}
	code := 0
	for _, w := range allWorkloads {
		childArgs := append(append([]string(nil), args...), "-workload", w.name)
		if c.trace && c.traceOut != "" {
			ext := filepath.Ext(c.traceOut)
			out := c.traceOut[:len(c.traceOut)-len(ext)] + "-" + w.name + ext
			childArgs = append(childArgs, "-trace-out", out)
		}
		cmd := exec.Command(self, childArgs...)
		pw := &lastLine{w: stdout}
		cmd.Stdout = pw
		cmd.Stderr = stderr
		err := cmd.Run()
		var res result
		if jerr := json.Unmarshal(pw.last, &res); jerr != nil || err != nil {
			fmt.Fprintf(stderr, "bench: workload %s failed: %v\n", w.name, err)
			code = 1
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if code == 0 && !total.Correct {
		code = 1
	}
	return code
}

// lastLine forwards a child's output and keeps its last complete line.
type lastLine struct {
	w    io.Writer
	buf  []byte
	last []byte
}

func (l *lastLine) Write(p []byte) (int, error) {
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		if i > 0 {
			l.last = append(l.last[:0], l.buf[:i]...)
		}
		l.buf = l.buf[i+1:]
	}
	return l.w.Write(p)
}

// traceOutPath resolves where a traced run writes its trace-event file.
func traceOutPath(c config) string {
	if c.traceOut != "" {
		return c.traceOut
	}
	return filepath.Join(".bench_build", "trace-"+c.workload+".json")
}
