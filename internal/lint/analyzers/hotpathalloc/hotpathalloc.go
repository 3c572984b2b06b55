// Package hotpathalloc guards the event-engine hot path against the
// per-event closure allocations PR 3 removed.
//
// Scheduling a capturing func literal on the engine allocates a closure
// (and often a heap-escaped context) for every event. On the simulator's
// highest-rate paths — CU issue, bank service, wake delivery — that cost a
// 4–7x slowdown before pooled event.Task replaced it. The analyzer flags a
// capturing function literal passed directly to an Engine scheduling
// method (At / After / AtTask / AfterTask / NewTask) inside
// the hot-path packages (internal/gpu, internal/syncmon, internal/policy).
//
// The check is interprocedural: the ipsummary framework marks
// function-typed parameters that a callee (transitively, across package
// boundaries via facts) forwards into an engine-schedule call. A capturing
// literal handed to such a forwarder is flagged exactly like one handed to
// Engine.At directly — wrapping the schedule in a helper does not launder
// the per-event allocation.
//
// The sanctioned patterns remain available:
//   - pooled tasks: e.NewTask(topLevelFunc) with arguments in Env/I slots;
//   - episode hoisting: build the closure once per wait episode, then pass
//     the identifier on every retry (only literals at the call site are
//     flagged);
//   - non-capturing literals, which the compiler allocates once.
//
// Genuinely cold scheduling sites in these packages carry a
// `//lint:allow hotpathalloc <reason>` directive.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/interproc"
)

// Analyzer is the hotpathalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "hotpathalloc",
	Doc:      "forbid capturing closure literals scheduled on the event engine in hot-path packages",
	Requires: []*analysis.Analyzer{interproc.Analyzer},
	Run:      run,
}

// hotPackages are the package-path suffixes whose scheduling sites are on
// (or adjacent to) the event hot path. Suffix matching keeps the analyzer
// testable from analysistest testdata packages of the same name.
var hotPackages = []string{"/gpu", "/syncmon", "/policy"}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	ip := pass.ResultOf[interproc.Analyzer].(*interproc.Result)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := interproc.EngineSchedCall(pass.TypesInfo, call); ok {
				for _, arg := range call.Args {
					reportCapturing(pass, arg, "scheduled via Engine."+name)
				}
				return true
			}
			// A callee whose summary forwards a func-typed parameter into
			// an engine-schedule call is a scheduling site by proxy.
			callee, fwd := forwarder(pass, ip, call)
			for _, i := range fwd {
				if i < len(call.Args) {
					reportCapturing(pass, call.Args[i],
						"forwarded to "+callee+" which schedules it on the engine")
				}
			}
			return true
		})
	}
	return nil, nil
}

// reportCapturing flags arg if it is a func literal with free variables.
func reportCapturing(pass *analysis.Pass, arg ast.Expr, via string) {
	lit, ok := arg.(*ast.FuncLit)
	if !ok {
		return
	}
	if capt := captured(pass, lit); len(capt) > 0 {
		pass.Report(analysis.Diagnostic{
			Pos: lit.Pos(), End: lit.Type.End(),
			Message: "capturing closure (" + strings.Join(capt, ", ") + ") " + via +
				" allocates per event; use a pooled Task (Engine.NewTask + Env/I slots) " +
				"or hoist the closure out of the per-event path",
		})
	}
}

func inScope(path string) bool {
	for _, s := range hotPackages {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// forwarder resolves call's static callee and returns its display name
// plus the argument indices its summary forwards into engine scheduling.
func forwarder(pass *analysis.Pass, ip *interproc.Result, call *ast.CallExpr) (string, []int) {
	var obj *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if obj == nil {
		return "", nil
	}
	s := ip.SummaryOf(obj)
	if s == nil || len(s.SchedParams) == 0 {
		return "", nil
	}
	return obj.Name(), s.SchedParams
}

// captured returns the names of free variables the literal captures:
// objects used inside the body but declared outside it (and not at package
// scope — package-level vars don't force a closure context allocation per
// schedule... they do force a closure, but a shared static one).
func captured(pass *analysis.Pass, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Package-level variables are not per-call captures.
		if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the literal (params, locals)
		}
		if !seen[obj.Name()] {
			seen[obj.Name()] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}
