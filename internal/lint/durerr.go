package lint

import (
	"go/ast"
	"go/types"
)

// storePkg/servePkg are the durability packages of the PR 4 contract:
// the write-ahead journal + content-addressed result store, and the
// HTTP service that persists through them.
const (
	storePkg = ModulePath + "/internal/store"
	servePkg = ModulePath + "/internal/serve"
)

// durErr guards the durability contract: in internal/store and
// internal/serve a silently discarded error from
//
//   - (*os.File).Sync — the fsync IS the durability guarantee,
//   - Close on any closer — on write paths Close flushes, and its error
//     is the last chance to learn the bytes never hit the disk,
//   - os.Rename / os.Remove / os.RemoveAll — the atomic-publish and
//     eviction primitives of the store,
//   - (*os.File).Chmod / os.Chmod — a dropped chmod before an atomic
//     rename publishes the file with the temp file's restrictive mode,
//   - any error-returning function or method declared in
//     internal/store — the CRC-framed write paths (Journal.Append,
//     Rewrite, Results.Put, ...),
//
// is an error. A deliberate, audited discard is written as an explicit
// `_ = call()` (ideally with a comment); the bare statement form and
// bare `defer call()` are flagged because they hide the decision.
var durErr = &Analyzer{
	Name: "durerr",
	Doc:  "durability packages must not silently discard Sync/Close/Rename/store-write errors",
	Applies: func(path string) bool {
		return path == storePkg || path == servePkg
	},
	Run: runDurErr,
}

func runDurErr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch st := n.(type) {
			case *ast.ExprStmt:
				if c, ok := st.X.(*ast.CallExpr); ok {
					call, how = c, "discarded"
				}
			case *ast.DeferStmt:
				call, how = st.Call, "discarded by defer"
			case *ast.GoStmt:
				call, how = st.Call, "discarded by go"
			}
			if call == nil {
				return true
			}
			if why, ok := durErrTarget(pass.Info, call); ok {
				pass.Reportf(call.Pos(), "%s error %s: handle it, or write an explicit `_ = ...` to mark an audited discard (PR 4 durability contract)", why, how)
			}
			return true
		})
	}
}

// durErrTarget reports whether call is one of the guarded calls and,
// if so, how to describe it. Only calls whose sole result is an error
// (or whose last result is an error for store-declared write paths)
// qualify — a call returning nothing has nothing to discard.
func durErrTarget(info *types.Info, call *ast.CallExpr) (string, bool) {
	results := resultTypes(info, call)
	if len(results) == 0 || !isErrorType(results[len(results)-1]) {
		return "", false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil {
				switch fn.Name() {
				case "Sync":
					if namedIs(sig.Recv().Type(), "os", "File") {
						return "(*os.File).Sync", true
					}
				case "Chmod":
					// A dropped chmod on a temp file silently publishes a
					// compacted journal with the tmp file's 0600 mode.
					if namedIs(sig.Recv().Type(), "os", "File") {
						return "(*os.File).Chmod", true
					}
				case "Close":
					if len(results) == 1 {
						return recvTypeName(sig) + ".Close", true
					}
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == storePkg {
					return "store write path " + recvTypeName(sig) + "." + fn.Name(), true
				}
				return "", false
			}
			if fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "os":
					switch fn.Name() {
					case "Rename", "Remove", "RemoveAll", "Chmod":
						return "os." + fn.Name(), true
					}
				case storePkg:
					return "store write path store." + fn.Name(), true
				}
			}
		}
	}
	// Unexported package-local helpers of the store package itself
	// (frame, replay, ...) called as plain identifiers.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == storePkg {
			return "store write path " + fn.Name(), true
		}
	}
	return "", false
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}
