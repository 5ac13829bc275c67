package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// determinism guards the byte-identical-output contract of the
// alignment pipeline (PR 2 aliasing fix, PR 5 tie-break rules, PR 6
// kernel equivalence): in the determinism-critical packages it flags
//
//   - time.Now / time.Since — wall-clock reads feeding the result path
//     (timing for reports is fine, but must be suppressed with a reason
//     stating the value never reaches the alignment);
//   - math/rand imports — randomness is only admissible behind a fixed
//     seed, which a suppression must state;
//   - range over a map whose body builds ordered output (appends,
//     counter-indexed writes, buffer writes, string concatenation,
//     order-sensitive float accumulation) or feeds an argmin/argmax
//     comparison — Go randomizes map iteration order per run, so such
//     loops are cross-run nondeterministic unless the output is sorted
//     afterwards (a sort call on the collected slice later in the same
//     block is recognized and silences the finding);
//   - obs span timing reads — obs.(*Span).Wall and
//     obs.(*Tracer).Document expose wall-clock durations (obs owns the
//     pipeline's only other audited clock besides core/clock.go), so
//     reading them inside a determinism-critical package is a clock
//     read by another name. Emitting spans (Start/StartDepth, the
//     Set* attribute setters, End) is write-only and stays allowed.
var determinism = &Analyzer{
	Name: "determinism",
	Doc:  "determinism-critical packages must not read clocks, use math/rand, or depend on map iteration order",
	Applies: func(path string) bool {
		return determinismPackages[path]
	},
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "determinism-critical package imports %s: randomness must be fixed-seed and justified with a suppression", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := importedPkgFunc(pass.Info, call, "time", "Now", "Since"); ok {
					pass.Reportf(call.Pos(), "determinism-critical package reads the wall clock via time.%s: clock values must never influence alignment bytes", name)
				}
				const obsPath = ModulePath + "/internal/obs"
				if methodOn(pass.Info, call, "Wall", obsPath, "Span") {
					pass.Reportf(call.Pos(), "determinism-critical package reads a span timing via obs.(*Span).Wall: trace durations must never influence alignment bytes")
				}
				if methodOn(pass.Info, call, "Document", obsPath, "Tracer") {
					pass.Reportf(call.Pos(), "determinism-critical package reads trace timings via obs.(*Tracer).Document: trace durations must never influence alignment bytes")
				}
			}
			return true
		})
		checkMapRanges(pass, f)
	}
}

// checkMapRanges walks every statement list so that the
// sorted-afterwards escape can see the statements following each range
// loop in its innermost block.
func checkMapRanges(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var stmts []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		default:
			return true
		}
		for i, s := range stmts {
			rs, ok := s.(*ast.RangeStmt)
			if !ok {
				continue
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				continue
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				continue
			}
			checkMapRangeBody(pass, rs, stmts[i+1:])
		}
		return true
	})
}

// checkMapRangeBody flags order-sensitive writes inside one
// map-iteration body. later are the statements following the loop in
// its innermost block, consulted for the collect-then-sort idiom.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, later []ast.Stmt) {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
			if obj := pass.Info.Uses[id]; obj != nil { // `=` instead of `:=`
				loopVars[obj] = true
			}
		}
	}
	mentionsLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	sortedLater := func(target ast.Expr) bool {
		id := rootIdent(target)
		if id == nil {
			return false
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			return false
		}
		for _, s := range later {
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
					if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
						for _, arg := range call.Args {
							aid := rootIdent(arg)
							if aid != nil && (pass.Info.Uses[aid] == obj || pass.Info.Defs[aid] == obj) {
								found = true
							}
						}
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
		return false
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass.Info, call) && i < len(st.Lhs) {
					if !sortedLater(st.Lhs[i]) {
						pass.Reportf(st.Pos(), "append inside map iteration builds output in map order (cross-run nondeterministic): iterate sorted keys or sort the result in this block")
					}
				}
			}
			for _, lhs := range st.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				tv, ok := pass.Info.Types[ix.X]
				if !ok {
					continue
				}
				if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
					continue
				}
				// out[k] for the map key k is deterministic; out[i]
				// with a loop-advanced counter records map order.
				if !mentionsLoopVar(ix.Index) && !isConstExpr(pass.Info, ix.Index) && !sortedLater(ix.X) {
					pass.Reportf(st.Pos(), "counter-indexed slice write inside map iteration records map order (cross-run nondeterministic): index by the key or sort afterwards")
				}
			}
			// += / -= / *= on floats accumulates in map order; float
			// addition does not commute under rounding. Keyed targets
			// (acc[k] += v) are touched once per key and stay exempt.
			if st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN || st.Tok == token.MUL_ASSIGN {
				lhs := st.Lhs[0]
				tv, ok := pass.Info.Types[lhs]
				if !ok {
					break
				}
				basic, isBasic := tv.Type.Underlying().(*types.Basic)
				if !isBasic {
					break
				}
				if basic.Info()&types.IsFloat != 0 && !mentionsLoopVar(lhs) {
					pass.Reportf(st.Pos(), "float accumulation inside map iteration rounds in map order (cross-run nondeterministic): accumulate over sorted keys")
				}
				if basic.Kind() == types.String && !mentionsLoopVar(lhs) {
					pass.Reportf(st.Pos(), "string concatenation inside map iteration emits map order (cross-run nondeterministic): collect and sort first")
				}
			}
		case *ast.CallExpr:
			if sel, ok := st.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					if namedIs(typeOf(pass.Info, sel.X), "bytes", "Buffer") || namedIs(typeOf(pass.Info, sel.X), "strings", "Builder") {
						pass.Reportf(st.Pos(), "buffer write inside map iteration emits map order (cross-run nondeterministic): collect and sort first")
					}
				}
			}
			if name, ok := importedPkgFunc(pass.Info, st, "fmt", "Fprint", "Fprintf", "Fprintln"); ok {
				pass.Reportf(st.Pos(), "fmt.%s inside map iteration emits map order (cross-run nondeterministic): collect and sort first", name)
			}
		case *ast.IfStmt:
			checkArgmax(pass, st, loopVars, mentionsLoopVar)
		}
		return true
	})
}

// checkArgmax flags the min/max-selection idiom over a map: a
// relational comparison on a loop variable guarding assignments to
// variables that outlive the loop. On ties, the winner is whichever key
// the runtime happened to yield first.
func checkArgmax(pass *Pass, ifs *ast.IfStmt, loopVars map[types.Object]bool, mentionsLoopVar func(ast.Expr) bool) {
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return
	}
	if !mentionsLoopVar(cond.X) && !mentionsLoopVar(cond.Y) {
		return
	}
	assignsOuter := false
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range as.Lhs {
			id := rootIdent(lhs)
			if id == nil {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj != nil && !loopVars[obj] {
				assignsOuter = true
			}
		}
		return !assignsOuter
	})
	if assignsOuter {
		pass.Reportf(ifs.Pos(), "min/max selection over map iteration breaks ties in map order (cross-run nondeterministic): add a deterministic tie-break on the key, or iterate sorted keys")
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// rootIdent digs the base identifier out of expressions like x,
// x.f, x[i], *x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}
