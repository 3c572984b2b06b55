// Package interproc is the interprocedural core of the awglint framework:
// a package-set call graph (including function-value and method-value
// edges), per-function effect summaries computed bottom-up over strongly
// connected components, and a package-fact export so analyzers compose
// across the module's package DAG through the offline loader.
//
// The per-function Summary records the effects the domain analyzers need:
//
//   - struct fields written (keyed by declaring type, so effects compose
//     through embedding, nesting, and helper calls) and writes the field
//     tracking cannot name — the purity verdict consumes these;
//   - engine-schedule effects (calls to event.Engine's At/After/AtTask/
//     AfterTask/NewTask), which make a function impure;
//   - nondeterminism taint (wall-clock reads, global math/rand) and a
//     conservative purity verdict — simdeterminism consumes these;
//   - the transitive set of module functions called, including functions
//     merely referenced as values (they may run later) — hotpathmap's
//     reachability consumes these.
//
// Within one package, summaries are computed by collapsing Tarjan SCCs of
// the package-local call graph in reverse topological order. Across packages, each analyzed package
// exports its composed summaries as a package fact; importers merge the
// facts of their dependencies, so effects flow bottom-up through the
// package DAG in the dependency-first order the driver visits packages.
package interproc

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"awgsim/internal/lint/analysis"
)

// FieldKey identifies one struct field by the package path and name of the
// named type that declares it. Keying by declaring type (not access path)
// is what lets effects compose: a helper mutating condStore.ents reports
// the same key whether it is called on s.store or on a local copy.
type FieldKey struct {
	Pkg   string
	Type  string
	Field string
}

func (k FieldKey) String() string { return k.Pkg + "." + k.Type + "." + k.Field }

// FuncKey canonically identifies a declared function or method across
// packages: "pkg.Func" or "pkg.(Type).Method" (pointer receivers collapse
// onto the value type; generic instances collapse onto their origin).
type FuncKey string

// Summary is the composed effect summary of one function: its own direct
// effects plus those of everything it (transitively) calls.
type Summary struct {
	// Writes holds fields assigned, element-assigned, or address-taken.
	Writes map[FieldKey]bool
	// Calls is the transitive set of module functions reachable from this
	// one, including functions referenced as values.
	Calls map[FuncKey]bool
	// Schedules reports that the function (transitively) places work on the
	// event engine.
	Schedules bool
	// Nondet lists nondeterminism sources reached (transitively):
	// "time.Now", "math/rand.Intn", ... with provenance through helpers.
	Nondet []string
	// WritesNonLocal reports writes through pointers, slices, maps, or
	// package-level variables that the field tracking above cannot name.
	WritesNonLocal bool
	// Unknown reports a call whose effects the framework cannot see: a
	// dynamic function value, an interface method, or unlisted standard
	// library code.
	Unknown bool
}

// Pure reports whether calling this function cannot leak iteration order or
// nondeterminism: no writes beyond locals, no scheduling, no taint, and no
// calls to code the framework cannot see.
func (s *Summary) Pure() bool {
	return s != nil && len(s.Writes) == 0 && !s.WritesNonLocal &&
		!s.Schedules && len(s.Nondet) == 0 && !s.Unknown
}

// Fact is the package fact ipsummary exports: the composed summaries of
// every function the package declares.
type Fact struct {
	Funcs map[FuncKey]*Summary
}

// Result is ipsummary's per-package return value, consumed by dependent
// analyzers through Pass.ResultOf.
type Result struct {
	// Order lists the package's declared functions in file order (the
	// deterministic iteration order for reporting).
	Order []*types.Func
	// Decls maps each declared function to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Keys maps each declared function to its canonical key.
	Keys map[*types.Func]FuncKey
	// Funcs holds the composed summaries of this package's functions and
	// of every module function imported (directly or transitively) from
	// dependency packages' facts.
	Funcs map[FuncKey]*Summary
}

// SummaryOf returns the composed summary for a declared or imported module
// function, nil when the framework has none.
func (r *Result) SummaryOf(obj *types.Func) *Summary {
	if obj == nil {
		return nil
	}
	return r.Funcs[Key(obj)]
}

// Reachable floods the package-local call graph from the declared
// functions satisfying root, following the transitive Calls sets.
func (r *Result) Reachable(root func(*types.Func, *ast.FuncDecl) bool) map[*types.Func]bool {
	reach := map[*types.Func]bool{}
	byKey := map[FuncKey]*types.Func{}
	for _, obj := range r.Order {
		byKey[r.Keys[obj]] = obj
	}
	for _, obj := range r.Order {
		if !root(obj, r.Decls[obj]) {
			continue
		}
		reach[obj] = true
		if s := r.Funcs[r.Keys[obj]]; s != nil {
			for k := range s.Calls {
				if callee, ok := byKey[k]; ok {
					reach[callee] = true
				}
			}
		}
	}
	return reach
}

// Analyzer computes the interprocedural summaries. It reports nothing
// itself; domain analyzers depend on it via Requires and read its Result.
var Analyzer = &analysis.Analyzer{
	Name:      "ipsummary",
	Doc:       "compute interprocedural per-function effect summaries (framework helper, no diagnostics)",
	FactBased: true,
	Run:       run,
}

// SchedMethods are the event.Engine methods that place work on the
// calendar (NewTask included: its TaskFunc runs as events).
var SchedMethods = map[string]bool{
	"At": true, "After": true, "AtTask": true, "AfterTask": true,
	"NewTask": true,
}

// EngineSchedCall reports whether call invokes a scheduling method on
// *event.Engine (matched by type name and package suffix, so testdata
// stand-ins work) and returns the method name.
func EngineSchedCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !SchedMethods[sel.Sel.Name] {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Engine" {
		return "", false
	}
	if pkg := named.Obj().Pkg(); pkg == nil || !strings.HasSuffix(pkg.Path(), "event") {
		return "", false
	}
	return sel.Sel.Name, true
}

// PureCall reports whether a call's static callee is known to be
// side-effect-free and deterministic: a module function whose composed
// summary is pure, or a whitelisted standard-library function. Dynamic
// calls and unknown callees are impure.
func (r *Result) PureCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	if s, ok := r.Funcs[Key(f)]; ok {
		return s.Pure()
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false // methods may mutate their receiver invisibly
	}
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	if pureStdlibPkgs[pkg.Path()] {
		return true
	}
	return pkg.Path() == "fmt" && pureFmtFuncs[f.Name()]
}

// Key returns the canonical cross-package key for a function or method.
func Key(obj *types.Func) FuncKey {
	obj = obj.Origin()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return FuncKey(pkg + ".(" + named.Obj().Name() + ")." + obj.Name())
		}
	}
	return FuncKey(pkg + "." + obj.Name())
}

// nondetCalls maps stdlib package path -> function name -> taint label.
var nondetCalls = map[string]map[string]string{
	"time": {"Now": "time.Now", "Since": "time.Since", "Until": "time.Until"},
}

// randConstructors build explicit seeded generators; every other
// math/rand package-level function draws from the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// pureStdlibPkgs are standard-library packages whose package-level
// functions neither mutate arguments nor observe ambient state; calls into
// them do not poison a summary's purity.
var pureStdlibPkgs = map[string]bool{
	"strings": true, "strconv": true, "unicode": true, "unicode/utf8": true,
	"math": true, "math/bits": true, "errors": true,
}

// pureFmtFuncs are the value-returning fmt functions (the printing ones
// write to process streams, which is an ordering-visible effect).
var pureFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

func run(pass *analysis.Pass) (any, error) {
	r := &Result{
		Decls: map[*types.Func]*ast.FuncDecl{},
		Keys:  map[*types.Func]FuncKey{},
		Funcs: map[FuncKey]*Summary{},
	}

	// Merge dependency facts: effects of module functions below us in the
	// DAG. The driver has already run ipsummary over them.
	for _, imp := range pass.Pkg.Imports() {
		if f, ok := pass.PackageFact(imp.Path()); ok {
			if fact, ok := f.(*Fact); ok {
				for k, s := range fact.Funcs {
					r.Funcs[k] = s
				}
			}
		}
	}

	// Collect the package's declared functions in file order.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			r.Order = append(r.Order, obj)
			r.Decls[obj] = fd
			r.Keys[obj] = Key(obj)
		}
	}

	// Extract each function's direct effects and local call edges.
	direct := map[*types.Func]*extraction{}
	for _, obj := range r.Order {
		direct[obj] = extract(pass, obj, r.Decls[obj], r)
	}

	// Tarjan SCCs over the package-local call graph, emitted in reverse
	// topological order (callees before callers), then one summary per
	// component.
	sccs := tarjan(r.Order, func(f *types.Func) []*types.Func { return direct[f].local })
	for _, scc := range sccs {
		inSCC := map[*types.Func]bool{}
		for _, f := range scc {
			inSCC[f] = true
		}
		// Collapse: all members share the union of direct effects plus the
		// already-final summaries of out-of-component callees.
		u := newSummary()
		for _, f := range scc {
			mergeExtraction(u, direct[f], r)
			for _, callee := range direct[f].local {
				if !inSCC[callee] {
					mergeSummary(u, r.Funcs[r.Keys[callee]], "")
				}
			}
		}
		for _, f := range scc {
			r.Funcs[r.Keys[f]] = cloneSummary(u)
		}
	}

	// Export this package's composed summaries for importers.
	fact := &Fact{Funcs: map[FuncKey]*Summary{}}
	for _, obj := range r.Order {
		fact.Funcs[r.Keys[obj]] = r.Funcs[r.Keys[obj]]
	}
	pass.ExportFact(fact)
	return r, nil
}

// extraction is one function's direct effects plus its outgoing edges.
type extraction struct {
	sum   *Summary      // direct effects only
	local []*types.Func // same-package callees (deduped, file order)
}

func newSummary() *Summary {
	return &Summary{
		Writes: map[FieldKey]bool{},
		Calls:  map[FuncKey]bool{},
	}
}

func cloneSummary(s *Summary) *Summary {
	c := newSummary()
	mergeSummary(c, s, "")
	return c
}

// mergeSummary folds src into dst; via, when non-empty, annotates taint
// provenance ("time.Now (via render)").
func mergeSummary(dst, src *Summary, via string) {
	if src == nil {
		dst.Unknown = true
		return
	}
	for k := range src.Writes {
		dst.Writes[k] = true
	}
	for k := range src.Calls {
		dst.Calls[k] = true
	}
	dst.Schedules = dst.Schedules || src.Schedules
	dst.WritesNonLocal = dst.WritesNonLocal || src.WritesNonLocal
	dst.Unknown = dst.Unknown || src.Unknown
	for _, n := range src.Nondet {
		if via != "" && !strings.Contains(n, " (via ") {
			n = n + " (via " + via + ")"
		}
		addNondet(dst, n)
	}
}

func addNondet(s *Summary, cause string) {
	for _, n := range s.Nondet {
		if n == cause {
			return
		}
	}
	s.Nondet = append(s.Nondet, cause)
	sort.Strings(s.Nondet)
}

// mergeExtraction folds a member's direct effects into the component
// summary, resolving external (cross-package) callees through r.Funcs.
func mergeExtraction(dst *Summary, ex *extraction, r *Result) {
	mergeSummary(dst, ex.sum, "")
	calls := make([]FuncKey, 0, len(ex.sum.Calls))
	for k := range ex.sum.Calls {
		calls = append(calls, k)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i] < calls[j] })
	for _, k := range calls {
		if s, ok := r.Funcs[k]; ok {
			name := string(k)
			if i := strings.LastIndexByte(name, '.'); i >= 0 {
				name = name[i+1:]
			}
			mergeSummary(dst, s, name)
		}
	}
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
