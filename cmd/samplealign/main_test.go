package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFatalPrintsOnePrefix builds the command and runs it with an
// option the library refuses: exit status 1, and the library's error,
// which already names the program, printed under one prefix.
func TestFatalPrintsOnePrefix(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "samplealign")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the command: %v\n%s", err, out)
	}
	in := filepath.Join(dir, "in.fa")
	if err := os.WriteFile(in, []byte(">a\nACDEFGHIKL\n>b\nACDEFGHIKM\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", in, "-samples", "-3"}, "samplealign: sample size = -3\n"},
		{[]string{"-in", filepath.Join(dir, "missing.fa")}, "samplealign: "},
	} {
		out, err := exec.Command(tool, tc.args...).CombinedOutput()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Fatalf("samplealign %v: %v, want exit status 1\n%s", tc.args, err, out)
		}
		if !strings.HasPrefix(string(out), tc.want) || strings.Count(string(out), "samplealign:") != 1 {
			t.Errorf("samplealign %v printed %q, want one prefix, starting %q", tc.args, out, tc.want)
		}
	}
}
