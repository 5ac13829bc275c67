package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// seeded is a module named like this one holding one violation per
// analyzer, each in a package the analyzer scopes to.
var seeded = map[string]string{
	"go.mod": "module repro\n\ngo 1.24\n",
	"internal/kmer/kmer.go": `package kmer

import (
	"context"
	"time"
)

func Rank() (context.Context, time.Time) { return context.Background(), time.Now() }
`,
	"internal/store/store.go": `package store

import "os"

func Write(f *os.File) {
	f.Sync()
	f.Close()
}
`,
}

// TestDriverFindsOneViolationPerAnalyzer builds the tool and runs it the
// way scripts/lint.sh does, on the seeded module: exit status 1, the
// four findings, all three analyzers named.
func TestDriverFindsOneViolationPerAnalyzer(t *testing.T) {
	tool := filepath.Join(t.TempDir(), "samplealignlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the driver: %v\n%s", err, out)
	}
	mod := t.TempDir()
	for name, src := range seeded {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(tool, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("driver on the seeded module: %v, want exit status 1\n%s", err, out)
	}
	for _, want := range []string{
		"kmer.go:8", "[ctxflow]", "[determinism]",
		"store.go:6", "store.go:7", "[durerr]",
		"4 finding(s)",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("driver output lacks %q:\n%s", want, out)
		}
	}
}
