// Command samplealignlint is the driver of the project-invariant
// analyzer suite in internal/lint (ctxflow, determinism, durerr).
//
// `samplealignlint [packages]` loads the module through
// `go list -deps -export` (lint.LoadModule, type-checking with the same
// export-data importer as the fixture harness), runs the suite over
// every matched package and prints the findings; the default pattern is
// ./... and the exit status is 1 when anything was found.
// scripts/lint.sh and CI run it as
//
//	go run ./cmd/samplealignlint ./...
//
// Analyzers can be selected with -ctxflow, -determinism, -durerr
// (naming any runs only those). Suppressions
// are `//lint:allow <analyzer> <reason>` — see internal/lint and
// TESTING.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	enableFlags := map[string]*bool{}
	for _, a := range lint.Analyzers() {
		enableFlags[a.Name] = flag.Bool(a.Name, false, "run only the named analyzers: "+a.Doc)
	}
	flag.Parse()

	var enabled map[string]bool // nil: all analyzers
	for name, on := range enableFlags {
		if *on {
			if enabled == nil {
				enabled = map[string]bool{}
			}
			enabled[name] = true
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "samplealignlint: %v\n", err)
		os.Exit(1)
	}
	pkgs, err := lint.LoadModule(dir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "samplealignlint: %v\n", err)
		os.Exit(1)
	}
	found := 0
	for _, p := range pkgs {
		for _, d := range lint.Run(p.Fset, p.Files, p.PkgPath, p.Pkg, p.Info, enabled) {
			fmt.Printf("%s: %s [%s]\n", p.Fset.Position(d.Pos), d.Message, d.Analyzer)
			found++
		}
	}
	if found > 0 {
		fmt.Printf("samplealignlint: %d finding(s)\n", found)
		os.Exit(1)
	}
}
