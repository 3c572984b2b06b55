// Package hotpathmap keeps Go maps off the simulator's bank-service, wake
// and CU-issue paths.
//
// The data-oriented hot-state overhaul replaced the SyncMon condition
// cache's maps, the CP spilled-condition table's maps, and the memory
// system's value store with slab/flat structures: profiled suites spent
// over a quarter of their wall clock in map runtime (hash, probe, grow)
// and the allocations behind it. The CU's resident set followed: ranging
// it as a map on every compute chunk took a seventh of an oversubscribed
// workload's CPU. A map reintroduced on those paths — indexed, ranged,
// deleted from or cleared in any function reachable from a hot root —
// quietly reverts that, so the analyzer flags it at review time.
//
// Reachability is a flood over the package's reference graph: every
// identifier in a reached body that names a function declared in the
// package is an edge, whether it is called or passed as a value — e.g. a
// pooled-task callee handed to NewTask — since a value runs on the same
// hot path. Reporting stays same-package: cold code sharing a package is
// not flagged unless a hot root reaches it, and cross-package callees are
// the importing package's problem. len(m) is allowed (no hashing); a
// genuinely cold or setup-time map access on a hot path carries a
// `//lint:allow hotpathmap <reason>` directive.
package hotpathmap

import (
	"go/ast"
	"go/types"
	"strings"

	"awgsim/internal/lint/analysis"
)

// Analyzer is the hotpathmap analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathmap",
	Doc:  "forbid Go map index, range, delete and clear in functions reachable from bank-service, wake and CU-issue hot paths",
	Run:  run,
}

// scope names one hot package (by path suffix, so testdata stand-ins
// match), the hot path its findings name, and its hot roots: the entry
// points the machinery calls per atomic, per wake or per compute chunk.
type scope struct {
	pkgSuffix string
	path      string
	roots     map[string]bool
}

var scopes = []scope{
	{
		// SyncMon: per-atomic observation, registration/withdrawal at bank
		// time, spill, and the sporadic-wake sweep.
		pkgSuffix: "/syncmon", path: "bank-service/wake",
		roots: map[string]bool{
			"Register": true, "Unregister": true, "observe": true,
			"spill": true, "wakeAllOnAddr": true,
		},
	},
	{
		// CP firmware: drain/check passes, check results, and waiter
		// withdrawal all run against every spilled condition.
		pkgSuffix: "/cp", path: "bank-service/wake",
		roots: map[string]bool{
			"Unregister": true, "drainPass": true, "checkPass": true,
			"runCheckResult": true,
		},
	},
	{
		// GPU: every compute chunk re-samples the CU's issue-slot
		// contention, and the chunk chain re-arms itself as a pooled task;
		// every atomic's bank-service leg updates the Table 2
		// characterization, as does every wait episode's begin and end.
		pkgSuffix: "/gpu", path: "CU-issue/bank-service",
		roots: map[string]bool{
			"runCompute": true, "computeStep": true, "runComputeChunk": true,
			"runAtomicApply": true, "beginWait": true, "EndWait": true,
		},
	},
	{
		// Memory system: value reads/writes and every timing query run per
		// access at bank-service rate; context traffic runs per context
		// save and restore.
		pkgSuffix: "/mem", path: "bank-service/wake",
		roots: map[string]bool{
			"Read": true, "Write": true, "Access": true,
			"AtomicTiming": true, "LocalAtomicTiming": true, "ArmTiming": true,
			"LoadTiming": true, "StoreTiming": true, "ContextTraffic": true,
		},
	},
}

func run(pass *analysis.Pass) (any, error) {
	sc := scopeFor(pass.Pkg.Path())
	if sc == nil {
		return nil, nil
	}
	var order []*ast.FuncDecl // file order, the order bodies are checked in
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				order = append(order, fd)
				decls[pass.TypesInfo.Defs[fd.Name]] = fd
			}
		}
	}
	reached := map[*ast.FuncDecl]bool{}
	var flood func(fd *ast.FuncDecl)
	flood = func(fd *ast.FuncDecl) {
		if fd == nil || reached[fd] {
			return
		}
		reached[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
					flood(decls[f.Origin()])
				}
			}
			return true
		})
	}
	for _, fd := range order {
		if sc.roots[fd.Name.Name] {
			flood(fd)
		}
	}
	for _, fd := range order {
		if reached[fd] {
			checkBody(pass, sc.path, fd)
		}
	}
	return nil, nil
}

func scopeFor(path string) *scope {
	for i := range scopes {
		if strings.HasSuffix(path, scopes[i].pkgSuffix) {
			return &scopes[i]
		}
	}
	return nil
}

// checkBody flags map index, range, delete and clear operations inside
// one function reachable from the named hot path.
func checkBody(pass *analysis.Pass, path string, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if isMap(pass, n.X) {
				report(pass, n, name, path, "indexed")
			}
		case *ast.RangeStmt:
			if isMap(pass, n.X) {
				report(pass, n, name, path, "ranged over")
			}
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok || len(n.Args) == 0 || !isMap(pass, n.Args[0]) {
				return true
			}
			if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); !isB {
				return true
			}
			switch id.Name {
			case "delete":
				report(pass, n, name, path, "deleted from")
			case "clear":
				report(pass, n, name, path, "cleared")
			}
		}
		return true
	})
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func report(pass *analysis.Pass, n ast.Node, fn, path, verb string) {
	pass.Report(analysis.Diagnostic{
		Pos: n.Pos(), End: n.End(),
		Message: "map " + verb + " in " + fn + ", reachable from a " + path + " hot path; " +
			"use a slab or hashutil.Flat index (see the hot-state layout in DESIGN.md)",
	})
}
