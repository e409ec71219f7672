package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// -record with an unknown name exits non-zero, says why, and writes no
// record.
func TestRecordRejectsUnknownName(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cfc-bench")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-record", "ckpt,nosuch")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("exit %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown record "nosuch"`) {
		t.Errorf("output %q does not name the unknown record", out)
	}
	if recs, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(recs) != 0 {
		t.Errorf("wrote %v before rejecting the name", recs)
	}
}
