package kivati_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostileFlags builds the training, soak and exploration binaries and
// checks that each out-of-range flag ends the run with exit status 1 and
// an error naming the flag or the field it sets, before any work is done.
func TestHostileFlags(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/kivati-train", "./cmd/kivati-soak", "./cmd/kivati-explore").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(prog, []byte("void main() { print(1); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bin  string
		args []string
		name string // what stderr must name
	}{
		{"kivati-train", []string{"-mode", "bogus", "-out", filepath.Join(dir, "wl.txt"), prog}, `-mode "bogus"`},
		{"kivati-train", []string{"-iters", "-1", "-out", filepath.Join(dir, "wl.txt"), prog}, "-iters -1"},
		{"kivati-soak", []string{"-n", "-5"}, "-n -5"},
		{"kivati-explore", []string{"-gen", "-3"}, "-gen -3"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, tc.bin), tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case !errors.As(err, &exit) || exit.ExitCode() != 1:
			t.Errorf("%s %v: got %v, want exit status 1\n%s", tc.bin, tc.args, err, stderr.String())
		case !strings.Contains(stderr.String(), tc.name):
			t.Errorf("%s %v: stderr %q does not name %q", tc.bin, tc.args, stderr.String(), tc.name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wl.txt")); err == nil {
		t.Error("a rejected kivati-train run wrote its whitelist")
	}
}

// TestPaperTablesGolden builds kivati-bench and runs the full paper sweep
// (-all: Tables 1-9 and Figure 7 at the default scale and seed), comparing
// stdout byte for byte with testdata/paper_tables_golden.txt. It is the one
// gate over every optimization level, both operating modes and the
// bug-corpus tables; wall-clock timings go to stderr and are not compared.
func TestPaperTablesGolden(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/kivati-bench").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, "kivati-bench"), "-all")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("kivati-bench -all: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile("testdata/paper_tables_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("paper tables differ from the golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}
}
