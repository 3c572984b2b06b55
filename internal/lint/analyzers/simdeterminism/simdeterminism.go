// Package simdeterminism forbids nondeterminism sources in simulator code:
// wall-clock reads, the global math/rand stream, and map iteration whose
// order can leak into schedules, experiment tables, or serialized output.
//
// Every experiment artifact in this repository is pinned by golden records
// and the paper's replay guarantee: a (configuration, seed) pair must
// reproduce bit-identical results. The three constructs below are the ways
// that guarantee has historically been (or nearly been) broken:
//
//   - time.Now / time.Since / time.Until give wall-clock values; any that
//     reach simulated state or rendered output drift between runs.
//   - The global math/rand functions draw from a process-wide stream whose
//     consumption order depends on goroutine interleaving under
//     sim.RunAll; deterministic code must thread an explicit seeded
//     *rand.Rand (or splitmix64 state) instead.
//   - Ranging over a map yields keys in a randomized order. That is fine
//     for commutative updates (counters, map-to-map transforms) but not
//     when the order can reach an append that feeds output, an engine
//     schedule call, or any other order-sensitive sink. The analyzer
//     accepts loops whose bodies are provably order-insensitive and the
//     collect-then-sort idiom (append keys, sort.X afterwards in the same
//     function); everything else is reported. The body is judged by its
//     syntax alone: any call but len, cap, append, delete, min, max or a
//     type conversion counts as order-sensitive, a helper of the same
//     package included.
//
// Wall-clock use that is genuinely wanted (e.g. cmd-layer timestamps and
// benchmark wall time) is annotated `//lint:allow simdeterminism <reason>`.
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"awgsim/internal/lint/analysis"
)

// Analyzer is the simdeterminism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock reads, global math/rand, and order-leaking map iteration\n\n" +
		"Map-range bodies are judged syntactically: a call other than len, cap,\n" +
		"append, delete, min, max or a type conversion is order-sensitive, a\n" +
		"same-package helper's included. Collecting into a slice that is sorted\n" +
		"after the loop is accepted.",
	Run: run,
}

// forbiddenCalls maps package path -> function name -> explanation.
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
}

// randConstructors are the math/rand package-level functions that build
// explicit seeded generators rather than touching the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
				return true
			}
			return true
		})
	}
	return nil, nil
}

// checkCall reports wall-clock and global-rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. rand.Rand.Intn, time.Time.Sub) are fine
	}
	pkg := obj.Pkg().Path()
	if why, ok := forbiddenCalls[pkg][obj.Name()]; ok {
		pass.ReportRangef(call, "%s.%s is a %s; simulator state and output must be wall-clock free",
			pkg, obj.Name(), why)
		return
	}
	if (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[obj.Name()] {
		pass.ReportRangef(call, "%s.%s draws from the process-global random stream; thread a seeded *rand.Rand instead",
			pkg, obj.Name())
	}
}

// checkMapRanges walks one function body for range-over-map loops.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		w := &bodyWalk{pass: pass, rng: rng}
		w.checkStmts(rng.Body.List)
		if !w.sensitive {
			return true
		}
		// Collect-then-sort escape: every slice the body appends to is
		// sorted after the loop in the same function body.
		if len(w.appends) > 0 && w.onlyAppendsSensitive && allSortedAfter(pass, body, rng, w.appends) {
			return true
		}
		pass.Report(analysis.Diagnostic{
			Pos: rng.For, End: rng.X.End(),
			Message: "iterates over a map in nondeterministic order with an order-sensitive body; " +
				"collect and sort the keys first (or keep the body to commutative updates): " + w.why,
		})
		return true
	})
}

// bodyWalk classifies a range body as order-insensitive or not.
type bodyWalk struct {
	pass      *analysis.Pass
	rng       *ast.RangeStmt
	sensitive bool
	why       string
	// appends records canonical strings of outer slices appended to;
	// onlyAppendsSensitive is true when appends are the only reason the
	// body is order-sensitive (enabling the collect-then-sort escape).
	appends              []ast.Expr
	onlyAppendsSensitive bool
}

func (w *bodyWalk) flag(why string) {
	if !w.sensitive {
		w.why = why
		w.onlyAppendsSensitive = false
	}
	w.sensitive = true
}

func (w *bodyWalk) flagAppend(target ast.Expr) {
	w.appends = append(w.appends, target)
	if !w.sensitive {
		w.why = "appends to " + types.ExprString(target)
		w.onlyAppendsSensitive = true
	}
	w.sensitive = true
}

func (w *bodyWalk) checkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.checkStmt(s)
	}
}

func (w *bodyWalk) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0]
			}
			w.checkAssign(s.Tok, lhs, rhs)
		}
		for _, r := range s.Rhs {
			w.checkExpr(r)
		}
	case *ast.IncDecStmt:
		if !w.commutativeLvalue(s.X) {
			w.flag("updates " + types.ExprString(s.X))
		}
	case *ast.ExprStmt:
		// Of the accepted calls only delete can be a statement; checkExpr
		// flags any other call and vets delete's arguments.
		if _, ok := ast.Unparen(s.X).(*ast.CallExpr); !ok {
			w.flag("statement can export iteration order")
		}
		w.checkExpr(s.X)
	case *ast.IfStmt:
		w.checkExpr(s.Cond)
		if s.Init != nil {
			w.checkStmt(s.Init)
		}
		w.checkStmts(s.Body.List)
		if s.Else != nil {
			w.checkStmt(s.Else)
		}
	case *ast.BlockStmt:
		w.checkStmts(s.List)
	case *ast.DeclStmt:
		// Local declarations are fine; their initializers are vetted.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v)
					}
				}
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.RangeStmt:
		// Nested ranges are analyzed independently; their bodies still
		// inherit this loop's sensitivity rules. An assigning range writes
		// its key and value like an assignment does.
		if s.Tok == token.ASSIGN {
			for _, lhs := range []ast.Expr{s.Key, s.Value} {
				if lhs != nil {
					w.checkAssign(s.Tok, lhs, nil)
				}
			}
		}
		w.checkExpr(s.X)
		w.checkStmts(s.Body.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.checkStmt(s.Init)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond)
		}
		if s.Post != nil {
			w.checkStmt(s.Post)
		}
		w.checkStmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.checkStmt(s.Init)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.checkExpr(e)
				}
				w.checkStmts(cc.Body)
			}
		}
	default:
		// return, go, defer, send, select, type switch, labeled, ...:
		// all can export iteration order.
		w.flag("statement can export iteration order")
	}
}

// checkAssign vets one LHS of an assignment with operator tok inside the
// loop body; rhs is nil when the LHS takes no single expression's value.
func (w *bodyWalk) checkAssign(tok token.Token, lhs, rhs ast.Expr) {
	// Blank: discards the value; RHS side effects are vetted separately.
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	// Map writes commute across iteration orders (unless the value itself
	// is order-dependent, which the RHS vetting catches via calls).
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if bt := w.pass.TypesInfo.Types[ix.X].Type; bt != nil {
			if _, isMap := bt.Underlying().(*types.Map); isMap {
				return
			}
		}
	}
	// Variables declared by this loop (the key/value vars or := inside the
	// body) are per-iteration temporaries.
	if w.declaredInside(lhs) {
		return
	}
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		if w.commutativeLvalue(lhs) {
			return
		}
		w.flag("accumulates into non-integer " + types.ExprString(lhs))
	case token.ASSIGN:
		// x = append(x, ...) participates in the collect-then-sort escape.
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(w.pass, call, "append") &&
			len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
			w.flagAppend(lhs)
			return
		}
		w.flag("assigns " + types.ExprString(lhs) + " whose final value depends on iteration order")
	default:
		w.flag("updates " + types.ExprString(lhs) + " order-sensitively")
	}
}

// commutativeLvalue reports whether accumulating into this lvalue is
// order-insensitive: an integer (or boolean) variable or map entry.
// Floating-point accumulation is excluded — float addition is not
// associative, so summation order changes low bits.
func (w *bodyWalk) commutativeLvalue(e ast.Expr) bool {
	t := w.pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// declaredInside reports whether lhs is a variable declared within the
// range statement (key/value vars or body-local).
func (w *bodyWalk) declaredInside(lhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Defs[id]
	}
	return obj != nil && obj.Pos() >= w.rng.Pos() && obj.Pos() < w.rng.End()
}

// checkExpr vets an expression for calls with order-sensitive effects.
func (w *bodyWalk) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltin(w.pass, call, "len"), isBuiltin(w.pass, call, "cap"),
			isBuiltin(w.pass, call, "append"), isBuiltin(w.pass, call, "delete"),
			isBuiltin(w.pass, call, "min"), isBuiltin(w.pass, call, "max"),
			isConversion(w.pass, call):
			return true
		default:
			w.flag("calls " + types.ExprString(call.Fun) + " inside the loop")
			return true
		}
	})
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

// allSortedAfter reports whether every appended-to slice is passed to a
// sort.* / slices.Sort* call after the range statement within fn's body.
func allSortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, targets []ast.Expr) bool {
	sorted := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			sorted[types.ExprString(arg)] = true
		}
		return true
	})
	for _, t := range targets {
		if !sorted[types.ExprString(t)] {
			return false
		}
	}
	return true
}
