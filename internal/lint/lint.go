// Package lint is the project-invariant analyzer suite: a small,
// dependency-free analysis framework (the container pins the module to
// the standard library, so golang.org/x/tools/go/analysis is
// re-implemented here in miniature) plus three analyzers encoding the
// invariants earlier PRs paid for at runtime:
//
//   - ctxflow: library code must thread the caller's context — no
//     context.Background()/TODO() origination, no silently dropped ctx
//     parameters (guards the PR 1 cancellation plumbing).
//   - determinism: the byte-identical-output packages must not consult
//     wall-clock time or math/rand, and must not build ordered output
//     from map-iteration order (guards the PR 2/5/6 determinism
//     matrix).
//   - durerr: in the durability packages, discarding the error of
//     Sync/Close/Flush/Rename or of a store write path is an error
//     (guards the PR 4 crash-safety contract).
//
// The driver is cmd/samplealignlint, runnable standalone or as a
// `go vet -vettool`. Findings are suppressed line-by-line with
//
//	//lint:allow <analyzer> <reason>
//
// where the reason is mandatory; a reasonless directive is itself
// reported. See suppress.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import path of this module; analyzer scoping is
// expressed relative to it.
const ModulePath = "repro"

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File // non-test files of the package
	PkgPath string      // import path, test-variant suffix stripped
	Pkg     *types.Package
	Info    *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the analyzer runs on the package with the
	// given import path (test-variant suffix already stripped).
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{ctxFlow, determinism, durErr}
}

// byName returns the analyzer with the given name, or nil.
func byName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// NewInfo returns a types.Info populated with every map the analyzers
// consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// isTestFile reports whether the file (by filename) is a _test.go file.
// The suite checks invariants of production code; tests may freely use
// context.Background, wall clocks and maps.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// libraryPackage reports whether path is library code whose invariants
// the suite enforces: the module root package and everything under
// internal/, except internal/lint itself (the checker is not subject to
// the alignment pipeline's invariants) and fixture trees.
func libraryPackage(path string) bool {
	if path == ModulePath {
		return true
	}
	if !strings.HasPrefix(path, ModulePath+"/internal/") {
		return false
	}
	if path == ModulePath+"/internal/lint" || strings.HasPrefix(path, ModulePath+"/internal/lint/") {
		return false
	}
	return true
}

// determinismPackages are the packages whose output must be
// byte-identical across engines, worker counts, backends and kernels,
// and the dataset generators (rose, prefab) whose output feeds golden
// hashes and benchmark inputs.
var determinismPackages = map[string]bool{}

func init() {
	for _, p := range []string{
		"msa", "mafft", "cons", "tree", "kmer", "par", "profile",
		"pairwise", "dpkern", "core", "rose", "prefab",
	} {
		determinismPackages[ModulePath+"/internal/"+p] = true
	}
}

// Run executes every applicable analyzer of the suite over one
// type-checked package and returns the surviving diagnostics, sorted by
// position: suppressed findings are dropped, reasonless or unknown
// suppression directives are added. enabled selects analyzers by name;
// nil enables all.
func Run(fset *token.FileSet, files []*ast.File, pkgPath string, pkg *types.Package, info *types.Info, enabled map[string]bool) []Diagnostic {
	var src []*ast.File
	for _, f := range files {
		if !isTestFile(fset, f) {
			src = append(src, f)
		}
	}
	var diags []Diagnostic
	for _, a := range Analyzers() {
		if enabled != nil && !enabled[a.Name] {
			continue
		}
		if !a.Applies(pkgPath) {
			continue
		}
		pass := &Pass{
			Fset:     fset,
			Files:    src,
			PkgPath:  pkgPath,
			Pkg:      pkg,
			Info:     info,
			analyzer: a,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = applySuppressions(fset, src, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ---- shared type-query helpers ----

// importedPkgFunc reports whether call invokes the package-level
// function pkgPath.name, resolving import aliases through the type
// info.
func importedPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}

// methodOn reports whether call invokes a method with the given name
// whose receiver's core named type is pkgPath.typeName (through
// pointers).
func methodOn(info *types.Info, call *ast.CallExpr, name, pkgPath, typeName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return namedIs(s.Recv(), pkgPath, typeName)
}

func namedIs(t types.Type, pkgPath, typeName string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// resultTypes returns the result tuple of call's static type.
func resultTypes(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		if tv.IsVoid() {
			return nil
		}
		return []types.Type{t}
	}
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType)
}
