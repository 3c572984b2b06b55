// Package schedpast rejects two schedule-time hazard classes:
//
//  1. Constant zero delays passed to Engine.AfterTask. A relative delay
//     of zero re-fires in the same cycle: at best it burns event budget
//     (the engine's livelock backstop exists precisely because a
//     zero-delay loop never advances the clock), at worst it turns a
//     firmware cadence into a spin. Where a same-cycle continuation is
//     intended, AtTask(e.Now(), ...) states it explicitly. The fix — delay
//     1 — is mechanical and offered as a suggested fix.
//
//  2. Structural mutation of a collection while ranging over it in the
//     same function body — the `cp.checkPass` hazard class: the check pass
//     once walked its check-order slice by index while a met condition's
//     removal spliced the slice underneath it, skipping or repeating
//     conditions.
//     For slices, reassigning the ranged slice inside the body is flagged
//     unless the enclosing block immediately leaves the loop (the
//     splice-then-break idiom is sound: the stale iteration state is never
//     used again). For maps, inserting keys other than the range key is
//     flagged (iteration may or may not produce them — nondeterminism);
//     delete is always allowed, as the spec defines it.
package schedpast

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"awgsim/internal/lint/analysis"
)

// Analyzer is the schedpast analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "schedpast",
	Doc:  "reject constant-zero engine delays and range-with-structural-mutation (the checkPass hazard)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkZeroDelay(pass, n)
			case *ast.RangeStmt:
				checkRangeMutation(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkZeroDelay flags AfterTask calls on event.Engine whose delay
// argument is a compile-time constant zero.
func checkZeroDelay(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "AfterTask" || len(call.Args) < 1 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Engine" ||
		named.Obj().Pkg() == nil || !strings.HasSuffix(named.Obj().Pkg().Path(), "event") {
		return
	}
	delay := call.Args[0]
	tv, ok := pass.TypesInfo.Types[delay]
	if !ok || tv.Value == nil {
		return
	}
	if constant.Sign(tv.Value) > 0 {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: delay.Pos(), End: delay.End(),
		Message: "Engine." + sel.Sel.Name + " with constant delay " + tv.Value.String() +
			": a positive cycle delta is required (zero-delay rescheduling never advances the clock " +
			"and can livelock against the event budget)",
		SuggestedFixes: []analysis.SuggestedFix{{
			Message:   "use the minimum positive delay of one cycle",
			TextEdits: []analysis.TextEdit{{Pos: delay.Pos(), End: delay.End(), NewText: []byte("1")}},
		}},
	})
}

// checkRangeMutation flags structural mutation of the ranged collection
// inside the loop body.
func checkRangeMutation(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	_, isMap := t.Underlying().(*types.Map)
	_, isSlice := t.Underlying().(*types.Slice)
	if !isMap && !isSlice {
		return
	}
	base := types.ExprString(rng.X)
	keyName := ""
	if id, ok := rng.Key.(*ast.Ident); ok {
		keyName = id.Name
	}

	var walkStmts func(stmts []ast.Stmt)
	checkStmt := func(s ast.Stmt, rest []ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if isSlice && types.ExprString(lhs) == base && !leavesLoop(rest) {
					pass.ReportRangef(lhs, "reassigns %s while ranging over it (the checkPass splice hazard): "+
						"the loop keeps iterating stale state; snapshot the walk first or break immediately after the splice",
						base)
				}
				if isMap {
					if ix, ok := lhs.(*ast.IndexExpr); ok && types.ExprString(ix.X) == base {
						if id, ok := ix.Index.(*ast.Ident); !ok || id.Name != keyName {
							pass.ReportRangef(lhs, "inserts into %s while ranging over it: "+
								"the new entry may or may not be produced by this loop (nondeterministic); "+
								"collect the insertions and apply them after the loop", base)
						}
					}
				}
			}
		}
	}
	walkStmts = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			rest := stmts[i+1:]
			checkStmt(s, rest)
			// Recurse into nested blocks, keeping track of what follows
			// inside the *innermost* statement list for the exemption.
			switch s := s.(type) {
			case *ast.BlockStmt:
				walkStmts(s.List)
			case *ast.IfStmt:
				walkIf(s, walkStmts)
			case *ast.ForStmt:
				walkStmts(s.Body.List)
			case *ast.RangeStmt:
				walkStmts(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkStmts(cc.Body)
					}
				}
			}
		}
	}
	walkStmts(rng.Body.List)
}

func walkIf(s *ast.IfStmt, walkStmts func([]ast.Stmt)) {
	walkStmts(s.Body.List)
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		walkStmts(e.List)
	case *ast.IfStmt:
		walkIf(e, walkStmts)
	}
}

// leavesLoop reports whether the statements following the mutation in its
// innermost block unconditionally leave the loop: the splice-then-break /
// splice-then-return idiom. Any trailing break or return qualifies;
// intermediate bookkeeping statements are permitted as long as the block
// cannot fall back into the iteration.
func leavesLoop(rest []ast.Stmt) bool {
	if len(rest) == 0 {
		return false
	}
	switch last := rest[len(rest)-1].(type) {
	case *ast.BranchStmt:
		return last.Tok == token.BREAK
	case *ast.ReturnStmt:
		return true
	}
	return false
}
