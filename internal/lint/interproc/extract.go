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
// keep no hidden state but may rearrange their first argument's elements
// (sort.Ints, slices.Reverse), so a call into one is judged as a write
// into that argument's elements. A map-range body calling one directly
// is still judged by simdeterminism, which does not whitelist them.
var argPkgs = map[string]bool{"sort": true, "slices": true, "maps": true}

// extract walks one function body for its direct effects and its edges to
// the package's declared functions, called or referenced as values.
func extract(info *types.Info, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) *extraction {
	ex := &extraction{}
	seen := map[*types.Func]bool{}
	own := ownLocals(info, fd.Body)

	// write records a write to e or, with elems set, into e's elements.
	// Only a write whose root is a variable declared in this function stays
	// invisible to callers, and a write into the root's elements only when
	// the root owns them (ownLocals): a parameter's or an alias's elements
	// are the caller's data.
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
				if !ok || v.Pos() < fd.Pos() || v.Pos() >= fd.End() || elems && !own[v] {
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
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				write(x.Key, false)
				if x.Value != nil {
					write(x.Value, false)
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
				switch {
				case decls[f.Origin()] != nil, pureLibFunc(f):
				case pkgLevel(f) && argPkgs[f.Pkg().Path()] && len(x.Args) > 0:
					write(x.Args[0], true)
				default:
					ex.impure = true
				}
				return true
			}
			fun := ast.Unparen(x.Fun)
			if _, ok := fun.(*ast.FuncLit); ok {
				return true // invoked in place: its body is walked inline
			}
			if b := builtin(info, x); b != "" {
				switch b {
				case "append", "copy", "delete", "clear":
					write(x.Args[0], true) // they write their first argument's elements
				}
				return true
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

// ownLocals returns the variables body declares whose every value is a
// fresh allocation: each definition and assignment is a zero-valued var
// declaration, a make, a new, a composite literal, or an append to or
// re-slice of the variable itself. Any other local may alias a caller's
// data, as may a range variable or a function literal's parameter, which
// no assignment defines.
func ownLocals(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	own := map[*types.Var]bool{}
	bind := func(id *ast.Ident, fresh bool) {
		v, ok := info.ObjectOf(id).(*types.Var)
		if prev, seen := own[v]; seen {
			own[v] = prev && fresh
		} else if ok && info.Defs[id] != nil {
			own[v] = fresh
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					bind(id, len(x.Rhs) == len(x.Lhs) && freshValue(info, id, x.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				bind(id, len(x.Values) == 0 || len(x.Values) == len(x.Names) && freshValue(info, id, x.Values[i]))
			}
		}
		return true
	})
	return own
}

// freshValue reports whether e, assigned to the variable v names, is a
// fresh allocation: make, new, a composite literal, or an append to or
// re-slice of v itself.
func freshValue(info *types.Info, v *ast.Ident, e ast.Expr) bool {
	self := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && info.Uses[id] == info.ObjectOf(v)
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.SliceExpr:
		return self(x.X)
	case *ast.CallExpr:
		switch builtin(info, x) {
		case "make", "new":
			return true
		case "append":
			return self(x.Args[0])
		}
	}
	return false
}

// builtin returns the name of the builtin function call invokes, or "".
func builtin(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
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
