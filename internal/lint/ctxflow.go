package lint

import (
	"go/ast"
	"go/types"
)

// ctxFlow guards the cancellation plumbing: library packages must
// accept their caller's context, not originate one. Two rules:
//
//  1. No context.Background()/context.TODO() calls outside cmd/*,
//     examples/*, tests and main functions. The few places that
//     deliberately root a fresh context (a server's lifetime root, a
//     shutdown timeout that outlives the caller's ctx, a helper whose
//     callers hold no context) carry a //lint:allow ctxflow directive
//     documenting why.
//  2. A function that declares a context.Context parameter must use
//     it. A named-but-unread ctx is a dropped cancellation chain: the
//     work it spawns can no longer be cancelled. Interface-satisfying
//     stubs rename the parameter to _ to state the drop explicitly.
var ctxFlow = &Analyzer{
	Name:    "ctxflow",
	Doc:     "library code must thread the incoming context, never originate or drop one",
	Applies: libraryPackage,
	Run:     runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// main functions may originate contexts (scoping already
			// excludes cmd/* and examples/*, but the rule is cheap and
			// keeps fixtures honest).
			isMain := fd.Name.Name == "main" && fd.Recv == nil && pass.Pkg.Name() == "main"
			if !isMain {
				checkNoContextOrigin(pass, fd.Body)
			}
			checkCtxParamUsed(pass, fd)
		}
	}
}

// checkNoContextOrigin flags context.Background()/context.TODO() calls.
func checkNoContextOrigin(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Function literals are part of the enclosing function's
		// context discipline — keep descending.
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := importedPkgFunc(pass.Info, call, "context", "Background", "TODO"); ok {
			pass.Reportf(call.Pos(), "library code must not call context.%s: thread the caller's ctx (see PR 1 cancellation plumbing)", name)
		}
		return true
	})
}

// checkCtxParamUsed flags named context.Context parameters that the
// body never reads.
func checkCtxParamUsed(pass *Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	var ctxParams []*ast.Ident
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if namedIs(obj.Type(), "context", "Context") {
				ctxParams = append(ctxParams, name)
			}
		}
	}
	if len(ctxParams) == 0 {
		return
	}
	used := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil {
			used[obj] = true
		}
		return true
	})
	for _, p := range ctxParams {
		if !used[pass.Info.Defs[p]] {
			pass.Reportf(p.Pos(), "context parameter %s is dropped: pass it on or rename it to _ to state the drop", p.Name)
		}
	}
}
