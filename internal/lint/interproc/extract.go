package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
)

// extraction is one function's direct effects plus its outgoing edges.
type extraction struct {
	impure bool
	local  []*types.Func // same-package callees and function values (deduped, first-use order)
}

// argPkgs are standard-library packages whose package-level functions
// rearrange or read their arguments and keep no hidden state. A helper
// may call them; a map-range body calling one directly is still judged
// by simdeterminism, which does not whitelist them.
var argPkgs = map[string]bool{"sort": true, "slices": true, "maps": true}

// extract walks one function body for its direct effects and its edges to
// the package's declared functions, called or referenced as values.
func extract(info *types.Info, obj *types.Func, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) *extraction {
	ex := &extraction{}
	seen := map[*types.Func]bool{}

	// write records a write to e or, with elems set, into e's elements.
	// Only a write whose root is a variable declared in this function stays
	// invisible to callers, and not when it goes into the elements of a
	// parameter, which alias the caller's data.
	write := func(e ast.Expr, elems bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e, elems = x.X, true
			case *ast.SliceExpr:
				e, elems = x.X, true
			case *ast.Ident:
				if x.Name == "_" {
					return
				}
				v, ok := info.Uses[x].(*types.Var)
				if !ok || v.Pos() < fd.Pos() || v.Pos() >= fd.End() || elems && isParam(obj, v) {
					ex.impure = true
				}
				return
			default:
				// A selector (a field, or another package's variable), a
				// pointer dereference, or a composite root.
				ex.impure = true
				return
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, lhs := range x.Lhs {
					write(lhs, false)
				}
			}
		case *ast.IncDecStmt:
			write(x.X, false)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				write(x.X, false)
			}
		case *ast.GoStmt, *ast.SendStmt, *ast.SelectStmt:
			// Concurrency: effects and ordering invisible to the summary.
			ex.impure = true
		case *ast.CallExpr:
			if f := calleeFunc(info, x); f != nil {
				// A declared callee is an edge, added when its identifier
				// is visited below.
				if decls[f.Origin()] == nil && !pureLibFunc(f) && !(pkgLevel(f) && argPkgs[f.Pkg().Path()]) {
					ex.impure = true
				}
				return true
			}
			fun := ast.Unparen(x.Fun)
			if _, ok := fun.(*ast.FuncLit); ok {
				return true // invoked in place: its body is walked inline
			}
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "copy", "delete", "clear":
						write(x.Args[0], true) // they write their first argument's elements
					}
					return true
				}
			}
			if !info.Types[fun].IsType() {
				ex.impure = true // a function value or func-typed field, not a conversion
			}
		case *ast.Ident:
			// Calls and function values alike: a value may run later.
			if f, ok := info.Uses[x].(*types.Func); ok && decls[f.Origin()] != nil && !seen[f.Origin()] {
				seen[f.Origin()] = true
				ex.local = append(ex.local, f.Origin())
			}
		}
		return true
	})
	return ex
}

// isParam reports whether o is one of fn's parameters (including the
// receiver).
func isParam(fn *types.Func, o types.Object) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == o {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == o {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's static callee, nil for dynamic calls and
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
