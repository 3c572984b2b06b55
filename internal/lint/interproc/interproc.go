// Package interproc is the interprocedural core of the awglint framework:
// per-function effect summaries over one package's call graph (function-
// value and method-value edges included), composed bottom-up over its
// strongly connected components.
//
// A Summary holds what the domain analyzers consume:
//
//   - Calls, the transitive set of same-package functions a function calls
//     or references as a value (a value may run later) — hotpathmap's
//     reachability floods it from its roots;
//   - Impure, set when the function or anything it reaches may have an
//     effect a caller can see — simdeterminism accepts a call in a
//     map-range body only when the callee's bit is clear.
//
// Summaries stay inside the package: a call into any other package, the
// module's own included, is impure unless it is one of a few
// standard-library functions known to be pure, so no analysis reads
// another package's results.
package interproc

import (
	"go/ast"
	"go/types"

	"awgsim/internal/lint/analysis"
)

// Summary is the composed effect summary of one function: its own direct
// effects plus those of every same-package function it reaches. The
// members of one strongly connected component share one Summary.
type Summary struct {
	// Calls holds the same-package functions reachable from this one,
	// including functions referenced as values.
	Calls map[*types.Func]bool
	// Impure reports a caller-visible effect on some path: a write through
	// a selector, a pointer or a package variable; a write into the
	// elements of a parameter or of a local that may alias one (a local
	// owns its elements only if every value it takes is a fresh make, new,
	// composite literal, or append to or re-slice of itself); a call the
	// summary cannot see into (another package's function, a method
	// without a body here, a function value); or a go, send or select
	// statement. Writes include an assigning range statement's key and
	// value, and the first argument's elements of copy, delete, clear,
	// append and every sort, slices or maps function.
	Impure bool
}

// Result is ipsummary's per-package return value, consumed by dependent
// analyzers through Pass.ResultOf.
type Result struct {
	// Order lists the package's declared functions in file order (the
	// deterministic iteration order for reporting).
	Order []*types.Func
	// Decls maps each declared function to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Funcs maps each declared function to its composed summary.
	Funcs map[*types.Func]*Summary
}

// Reachable floods the package's call graph from the declared functions
// satisfying root, following their transitive Calls sets.
func (r *Result) Reachable(root func(*types.Func, *ast.FuncDecl) bool) map[*types.Func]bool {
	reach := map[*types.Func]bool{}
	for _, obj := range r.Order {
		if !root(obj, r.Decls[obj]) {
			continue
		}
		reach[obj] = true
		for callee := range r.Funcs[obj].Calls {
			reach[callee] = true
		}
	}
	return reach
}

// PureCall reports whether a call's static callee is known to be
// side-effect-free and deterministic: a same-package function whose
// composed summary is not Impure, or a whitelisted standard-library
// function. Every other call is impure.
func (r *Result) PureCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	if s, ok := r.Funcs[f.Origin()]; ok {
		return !s.Impure
	}
	return pureLibFunc(f)
}

// Analyzer computes the interprocedural summaries. It reports nothing
// itself; domain analyzers depend on it via Requires and read its Result.
var Analyzer = &analysis.Analyzer{
	Name: "ipsummary",
	Doc:  "compute per-function effect summaries within one package (framework helper, no diagnostics)",
	Run:  run,
}

// pureStdlibPkgs are standard-library packages whose package-level
// functions neither mutate arguments nor observe ambient state.
var pureStdlibPkgs = map[string]bool{
	"strings": true, "strconv": true, "unicode": true, "unicode/utf8": true,
	"math": true, "math/bits": true, "errors": true,
}

// pureFmtFuncs are the value-returning fmt functions (the printing ones
// write to process streams, which is an ordering-visible effect).
var pureFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// pureLibFunc reports whether f is a package-level function of a
// whitelisted standard-library package.
func pureLibFunc(f *types.Func) bool {
	if !pkgLevel(f) {
		return false // methods may mutate their receiver invisibly
	}
	path := f.Pkg().Path()
	return pureStdlibPkgs[path] || path == "fmt" && pureFmtFuncs[f.Name()]
}

// pkgLevel reports whether f is a package-level function rather than a
// method or a universe-scope function such as error.Error.
func pkgLevel(f *types.Func) bool {
	return f.Pkg() != nil && f.Type().(*types.Signature).Recv() == nil
}

func run(pass *analysis.Pass) (any, error) {
	r := &Result{
		Decls: map[*types.Func]*ast.FuncDecl{},
		Funcs: map[*types.Func]*Summary{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				r.Order = append(r.Order, obj)
				r.Decls[obj] = fd
			}
		}
	}

	direct := map[*types.Func]*extraction{}
	for _, obj := range r.Order {
		direct[obj] = extract(pass.TypesInfo, r.Decls[obj], r.Decls)
	}

	// tarjan emits components callees first, so a callee outside the
	// component being composed already has its final summary and one
	// inside it has none yet.
	for _, scc := range tarjan(r.Order, func(f *types.Func) []*types.Func { return direct[f].local }) {
		s := &Summary{Calls: map[*types.Func]bool{}}
		for _, f := range scc {
			s.Impure = s.Impure || direct[f].impure
			for _, callee := range direct[f].local {
				s.Calls[callee] = true
				if cs := r.Funcs[callee]; cs != nil {
					s.Impure = s.Impure || cs.Impure
					for c := range cs.Calls {
						s.Calls[c] = true
					}
				}
			}
		}
		for _, f := range scc {
			r.Funcs[f] = s
		}
	}
	return r, nil
}

// tarjan returns the strongly connected components of the call graph in
// reverse topological order (every edge leaves a later component).
func tarjan(nodes []*types.Func, succ func(*types.Func) []*types.Func) [][]*types.Func {
	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	var sccs [][]*types.Func
	next := 1

	var strong func(v *types.Func)
	strong = func(v *types.Func) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if index[w] == 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strong(v)
		}
	}
	return sccs
}
