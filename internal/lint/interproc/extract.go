package interproc

import (
	"go/ast"
	"go/token"
	"go/types"

	"awgsim/internal/lint/analysis"
)

// extract walks one function body and records its direct effects: field
// writes, call edges (local, cross-package, stdlib), scheduling, and
// nondeterminism taint.
func extract(pass *analysis.Pass, obj *types.Func, fd *ast.FuncDecl, r *Result) *extraction {
	ex := &extraction{sum: newSummary()}
	info := pass.TypesInfo

	// Locals declared in this function (value writes to them are invisible
	// to callers).
	locals := map[types.Object]bool{}
	//lint:allow simdeterminism set insertion keyed by object identity is commutative; Defs order never reaches a summary
	for id, o := range info.Defs {
		if v, ok := o.(*types.Var); ok && id.Pos() >= fd.Pos() && id.End() <= fd.End() {
			locals[v] = true
		}
	}

	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	writes := map[ast.Expr]bool{}
	seenLocal := map[*types.Func]bool{}

	// markWrite peels index/star/paren wrappers off an lvalue and records
	// the root selector (if any) as written; non-selector roots that reach
	// outside the function mark WritesNonLocal.
	markWrite := func(e ast.Expr) {
		deref := false
		indexed := false
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				indexed = true
				e = x.X
			case *ast.SliceExpr:
				indexed = true
				e = x.X
			case *ast.StarExpr:
				deref = true
				e = x.X
			default:
				goto done
			}
		}
	done:
		switch x := e.(type) {
		case *ast.SelectorExpr:
			writes[x] = true
		case *ast.Ident:
			o := info.Uses[x]
			if o == nil {
				o = info.Defs[x]
			}
			if o == nil || x.Name == "_" {
				return
			}
			if !locals[o] {
				ex.sum.WritesNonLocal = true
				return
			}
			// Writing through a deref or into the elements of a local that
			// aliases caller data (a pointer/slice/map parameter) is
			// caller-visible.
			if deref {
				ex.sum.WritesNonLocal = true
			} else if indexed {
				if v, ok := o.(*types.Var); ok && v.IsField() {
					ex.sum.WritesNonLocal = true
				} else if isParam(obj, o) {
					ex.sum.WritesNonLocal = true
				}
			}
		default:
			// Composite expressions (call results etc.): conservatively
			// caller-visible.
			ex.sum.WritesNonLocal = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)

		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, lhs := range x.Lhs {
					markWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markWrite(x.X)
			}
		case *ast.GoStmt, *ast.SendStmt, *ast.SelectStmt:
			// Concurrency: effects and ordering invisible to the summary.
			ex.sum.Unknown = true
		case *ast.CallExpr:
			extractCall(pass, ex, x, seenLocal, r)
		case *ast.SelectorExpr:
			recordFieldWrite(pass, ex, x, writes)
		case *ast.Ident:
			extractFuncValueRef(pass, ex, x, parents, seenLocal, r)
		}
		return true
	})
	return ex
}

// isParam reports whether o is one of fn's parameters (including the
// receiver).
func isParam(fn *types.Func, o types.Object) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
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

// recordFieldWrite records a field selection the precomputed lvalue map
// marks as written.
func recordFieldWrite(pass *analysis.Pass, ex *extraction, sel *ast.SelectorExpr, writes map[ast.Expr]bool) {
	if !writes[sel] {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	if fk, ok := fieldKeyOf(selection); ok {
		ex.sum.Writes[fk] = true
	}
}

// fieldKeyOf resolves a field selection to the named type that declares
// the selected field, walking the embedding path.
func fieldKeyOf(selection *types.Selection) (FieldKey, bool) {
	t := selection.Recv()
	index := selection.Index()
	var owner *types.Named
	var field *types.Var
	for _, i := range index {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return FieldKey{}, false
		}
		owner, field = named, st.Field(i)
		t = field.Type()
	}
	if owner == nil || field == nil || owner.Obj().Pkg() == nil {
		return FieldKey{}, false
	}
	return FieldKey{
		Pkg:   owner.Obj().Pkg().Path(),
		Type:  owner.Obj().Name(),
		Field: field.Name(),
	}, true
}

// extractCall records the effects of one call expression: engine
// scheduling, stdlib nondeterminism, and local and cross-package edges.
func extractCall(pass *analysis.Pass, ex *extraction, call *ast.CallExpr, seenLocal map[*types.Func]bool, r *Result) {
	info := pass.TypesInfo

	if _, ok := EngineSchedCall(info, call); ok {
		ex.sum.Schedules = true
		return
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		// Conversion, builtin, or dynamic call.
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			switch o := info.Uses[fun].(type) {
			case *types.Builtin:
				return // append/len/copy/... have no hidden effects
			case *types.TypeName:
				return // conversion
			case *types.Var:
				_ = o
				ex.sum.Unknown = true // calling a function value
				return
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
				ex.sum.Unknown = true // calling a func-typed field
				return
			}
			if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
				return // qualified conversion
			}
		case *ast.ArrayType, *ast.MapType, *ast.FuncType, *ast.InterfaceType, *ast.StarExpr:
			return // conversion
		case *ast.FuncLit:
			return // immediately-invoked literal: body walked inline
		}
		ex.sum.Unknown = true
		return
	}

	pkg := callee.Pkg()
	if pkg == nil {
		ex.sum.Unknown = true // error.Error and friends
		return
	}

	if pkg.Path() == pass.Pkg.Path() {
		if decl, ok := r.Decls[callee.Origin()]; ok && decl != nil {
			if !seenLocal[callee.Origin()] {
				seenLocal[callee.Origin()] = true
				ex.local = append(ex.local, callee.Origin())
			}
			ex.sum.Calls[Key(callee)] = true
			return
		}
		// Same-package method without body here (interface method on a
		// local interface type, or generated): unknown.
		ex.sum.Unknown = true
		return
	}

	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			ex.sum.Unknown = true // dynamic dispatch
			return
		}
	}

	key := Key(callee)
	if _, known := r.Funcs[key]; known {
		// Module dependency with an imported fact.
		ex.sum.Calls[key] = true
		return
	}

	// Standard library (or module package whose facts are absent).
	classifyStdlibCall(ex, callee, pkg.Path())
}

// classifyStdlibCall folds a standard-library call into the summary:
// nondeterminism taint for clocks and the global rand stream, purity for a
// small whitelist, Unknown otherwise.
func classifyStdlibCall(ex *extraction, callee *types.Func, pkgPath string) {
	name := callee.Name()
	if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
		// Stdlib method call (strings.Builder.WriteString, rand.Rand.Intn on
		// a seeded source, ...): receiver mutation is invisible here.
		// rand.Rand methods on explicitly-seeded sources are deterministic,
		// which is exactly why only package-level rand functions taint.
		ex.sum.Unknown = true
		return
	}
	if m, ok := nondetCalls[pkgPath]; ok {
		if label, ok := m[name]; ok {
			addNondet(ex.sum, label)
			return
		}
	}
	if pkgPath == "math/rand" || pkgPath == "math/rand/v2" {
		if !randConstructors[name] {
			addNondet(ex.sum, pkgPath+"."+name)
		}
		return
	}
	if pureStdlibPkgs[pkgPath] {
		return
	}
	if pkgPath == "fmt" && pureFmtFuncs[name] {
		return
	}
	if pkgPath == "sort" || pkgPath == "slices" || pkgPath == "maps" {
		// Deterministic argument manipulation (sort.Slice mutates its
		// argument, which the call site's own analysis sees; the functions
		// themselves introduce no hidden state). maps.Keys iteration order
		// is the *caller's* range concern, not a call effect.
		return
	}
	ex.sum.Unknown = true
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

// extractFuncValueRef records module functions referenced as values (not
// in call position): they may run later, so reachability must include
// them. This is the function-value / method-value edge of the call graph.
func extractFuncValueRef(pass *analysis.Pass, ex *extraction, id *ast.Ident, parents map[ast.Node]ast.Node, seenLocal map[*types.Func]bool, r *Result) {
	f, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	// Skip idents that are the callee of a direct call (handled by
	// extractCall) or the Sel of a selector (the selector path handles it).
	switch p := parents[id].(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == ast.Expr(id) {
			return
		}
	case *ast.SelectorExpr:
		if p.Sel == id {
			// Method value or qualified ref: check the selector's parent.
			if call, ok := parents[p].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(p) {
				return
			}
		} else {
			return // id is the X of the selector: a package name or value
		}
	}
	pkg := f.Pkg()
	if pkg == nil {
		return
	}
	if pkg.Path() == pass.Pkg.Path() {
		if _, ok := r.Decls[f.Origin()]; ok {
			if !seenLocal[f.Origin()] {
				seenLocal[f.Origin()] = true
				ex.local = append(ex.local, f.Origin())
			}
			ex.sum.Calls[Key(f)] = true
		}
		return
	}
	if _, known := r.Funcs[Key(f)]; known {
		ex.sum.Calls[Key(f)] = true
	}
	// Stdlib function values (sort.Strings passed around): ignore; if
	// called dynamically the call site reports Unknown.
}
