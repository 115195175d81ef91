package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostileCounts builds kivati-run and checks that core and watchpoint
// counts outside [1, 64] end the run with exit status 1 and an error naming
// the field, before the machine allocates anything.
func TestHostileCounts(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "kivati-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(prog, []byte("void main() { print(1); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-cores", "50000000"}, "Cores 50000000"},
		{[]string{"-cores", "0"}, ""},
		{[]string{"-watchpoints", "100000000"}, "NumWatchpoints 100000000"},
		{[]string{"-watchpoints", "-1"}, "NumWatchpoints -1"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append(tc.args, prog)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%v: %v\n%s", tc.args, err, stderr.String())
		case tc.field == "":
		case !errors.As(err, &exit) || exit.ExitCode() != 1:
			t.Errorf("%v: got %v, want exit status 1", tc.args, err)
		case !strings.Contains(stderr.String(), tc.field+" outside [1, 64]"):
			t.Errorf("%v: stderr %q does not name %q", tc.args, stderr.String(), tc.field)
		}
	}
}
