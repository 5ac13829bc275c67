package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// dpPkg is the pooled-workspace package; its constructors are the
// acquisition points the discipline tracks.
const dpPkg = ModulePath + "/internal/dp"

// PoolDiscipline guards the PR 1 allocation-free kernels: a pooled DP
// workspace (dp.GetScore/GetRaw) or a raw sync.Pool Get must
// be released in the acquiring function —
//
//   - no release at all is a leak: the pool drains and every DP pass
//     allocates fresh planes again;
//   - a non-deferred release with a return statement between Get and
//     Put leaks on the early exit (and on panics); defer the Put;
//   - returning the workspace (or anything rooted at it — its planes
//     alias pooled backing arrays) publishes memory that the next
//     borrower will scribble over.
//
// The dp package itself is exempt: it implements the pool, so its
// constructors hand workspaces out by design.
var PoolDiscipline = &Analyzer{
	Name: "pooldiscipline",
	Doc:  "pooled workspaces must be released on every exit and must not escape the borrowing function",
	Applies: func(path string) bool {
		return libraryPackage(path) && path != dpPkg
	},
	Run: runPoolDiscipline,
}

func runPoolDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd)
		}
	}
}

type acquisition struct {
	call *ast.CallExpr
	obj  types.Object // variable bound to the workspace, if any
	what string
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	var acqs []acquisition
	var deferredPut bool
	var putPositions []token.Pos

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isPoolGet(pass.Info, call) {
					continue
				}
				a := acquisition{call: call, what: callName(call)}
				if len(st.Lhs) == len(st.Rhs) {
					if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.Info.Defs[id]; obj != nil {
							a.obj = obj
						} else if obj := pass.Info.Uses[id]; obj != nil {
							a.obj = obj
						}
					}
				}
				acqs = append(acqs, a)
			}
		case *ast.DeferStmt:
			if containsPoolPut(pass.Info, st.Call) {
				deferredPut = true
			}
			// defer func() { dp.Put(w) }() also counts.
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && isPoolPut(pass.Info, c) {
						deferredPut = true
					}
					return true
				})
			}
		case *ast.CallExpr:
			if isPoolPut(pass.Info, st) {
				putPositions = append(putPositions, st.Pos())
			}
			if isPoolGet(pass.Info, st) {
				// A Get whose result is consumed by something other
				// than an assignment (returned, passed on) — record it
				// so the no-release check still fires; escape checks
				// below handle returns.
				parentTracked := false
				for _, a := range acqs {
					if a.call == st {
						parentTracked = true
					}
				}
				if !parentTracked {
					acqs = append(acqs, acquisition{call: st, what: callName(st)})
				}
			}
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	if !deferredPut && len(putPositions) == 0 {
		for _, a := range acqs {
			pass.Reportf(a.call.Pos(), "%s acquires a pooled workspace that this function never releases: add defer dp.Put (or Pool.Put)", a.what)
		}
		return
	}

	// Non-deferred release: a return between the acquisition and the
	// first subsequent Put leaks the workspace on that path.
	if !deferredPut {
		for _, a := range acqs {
			nextPut := token.Pos(-1)
			for _, p := range putPositions {
				if p > a.call.Pos() && (nextPut == -1 || p < nextPut) {
					nextPut = p
				}
			}
			if nextPut == -1 {
				continue // flagged patterns above cover the no-put case
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // returns inside closures are not this function's exits
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				if ret.Pos() > a.call.Pos() && ret.Pos() < nextPut {
					pass.Reportf(ret.Pos(), "return leaks the workspace from %s acquired at line %d: release is not deferred", a.what, pass.Fset.Position(a.call.Pos()).Line)
				}
				return true
			})
		}
	}

	// Escape: returning the workspace or memory rooted at it.
	objs := map[types.Object]bool{}
	for _, a := range acqs {
		if a.obj != nil {
			objs[a.obj] = true
		}
	}
	if len(objs) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			id := rootIdent(res)
			if id == nil || !objs[pass.Info.Uses[id]] {
				continue
			}
			// Only reference types alias pooled memory: returning
			// w.MP escapes the plane, returning w.MP[0] copies a
			// scalar out and is the documented pattern.
			switch typeOf(pass.Info, res).Underlying().(type) {
			case *types.Slice, *types.Pointer:
				pass.Reportf(res.Pos(), "pooled workspace memory escapes via return: the next borrower will overwrite it — copy the result out before dp.Put")
			}
		}
		return true
	})
}

func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := importedPkgFunc(info, call, dpPkg, "GetScore", "GetRaw"); ok {
		return true
	}
	return methodOn(info, call, "Get", "sync", "Pool")
}

func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := importedPkgFunc(info, call, dpPkg, "Put"); ok {
		return true
	}
	return methodOn(info, call, "Put", "sync", "Pool")
}

func containsPoolPut(info *types.Info, call *ast.CallExpr) bool {
	if isPoolPut(info, call) {
		return true
	}
	return false
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return "pool acquisition"
}
