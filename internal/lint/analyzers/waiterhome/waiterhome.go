// Package waiterhome mechanizes the single-home rule: a waiter lives in
// exactly one of the SyncMon condition cache, the Monitor Log ring, or the
// CP spilled-condition table.
//
// PR 3 fixed two lost-wakeup bugs that were both violations of this rule —
// sm.Unregister tombstoning the ring behind the CP's back, and
// cp.Unregister recording a stale removed-tombstone after the ring entry
// was already consumed. The rule cannot be checked dynamically without the
// failing schedule in hand, but its structural precondition can: waiter
// state moves only through a small set of named transfer functions, so any
// direct mutation of the underlying containers from other code is a bug in
// the making. The CP's check order is links through the same table slots,
// so it is protected with them: a condition joins and leaves the order only
// with its first and last waiter.
//
// The analyzer restricts writes (assignment, ++/--, delete, splice-append)
// to the protected fields below to their approved transfer functions.
// Reads are unrestricted. A function literal defined inside an approved
// function inherits its approval.
package waiterhome

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"awgsim/internal/lint/analysis"
)

// Analyzer is the waiterhome analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "waiterhome",
	Doc:  "restrict waiter-state mutation to the approved single-home transfer functions",
	Run:  run,
}

// home describes one protected container: the owning type (matched by
// package-path suffix + type name, so testdata stand-ins work), the fields
// holding waiter state, and the functions allowed to mutate them.
type home struct {
	pkgSuffix string
	typeName  string
	fields    map[string]bool
	approved  map[string]bool // enclosing function names (methods or frees)
}

var homes = []home{
	{
		// SyncMon condition cache: conditions, waiters, and the slab store
		// holding them move together through registration/wake/evict paths.
		// (sets/byAddr/monitored survive as testdata stand-in fields.)
		pkgSuffix: "/syncmon", typeName: "SyncMon",
		fields: map[string]bool{
			"sets": true, "waiters": true, "byAddr": true,
			"monitored": true, "conds": true, "store": true,
		},
		approved: map[string]bool{
			"New": true, "Register": true, "Unregister": true,
			"dropEntry": true, "observe": true, "wakeAllOnAddr": true,
			"Degrade": true,
			// Restore rewrites every container of the home from one saved
			// image, so the single-home invariant holds by construction.
			"Restore": true,
		},
	},
	{
		// A condition entry's waiter queue is part of the cache home.
		pkgSuffix: "/syncmon", typeName: "condEntry",
		fields: map[string]bool{"waiters": true},
		approved: map[string]bool{
			"Register": true, "Unregister": true, "observe": true,
			"wakeAllOnAddr": true, "Degrade": true, "dropEntry": true,
		},
	},
	{
		// The slab condition store's containers: only the store's own
		// accessors move entries, waiter nodes, freelists, or set arrays.
		pkgSuffix: "/syncmon", typeName: "condStore",
		fields: map[string]bool{
			"setEnt": true, "setLen": true, "ents": true, "freeEnt": true,
			"wnodes": true, "freeW": true, "byAddr": true,
		},
		approved: map[string]bool{
			"newCondStore": true, "insert": true, "drop": true,
			"pushWaiter": true, "popWaiter": true, "shedTailWaiter": true,
			"removeWaiter": true, "clearWaiters": true,
			// Whole-store rewind from a snapshot image (see Restore above).
			"restore": true,
		},
	},
	{
		// A slab condition slot's intrusive links and waiter list heads.
		pkgSuffix: "/syncmon", typeName: "condSlot",
		fields: map[string]bool{
			"addrNext": true, "wHead": true, "wTail": true, "wLen": true,
			"next": true,
		},
		approved: map[string]bool{
			"insert": true, "drop": true, "pushWaiter": true,
			"popWaiter": true, "shedTailWaiter": true, "removeWaiter": true,
			"clearWaiters": true,
		},
	},
	{
		// Waiter-node freelist links.
		pkgSuffix: "/syncmon", typeName: "waiterSlot",
		fields: map[string]bool{"next": true},
		approved: map[string]bool{
			"drop": true, "pushWaiter": true, "popWaiter": true,
			"shedTailWaiter": true, "removeWaiter": true, "clearWaiters": true,
		},
	},
	{
		// Per-address chain heads in the open-addressed index.
		pkgSuffix: "/syncmon", typeName: "addrState",
		fields:   map[string]bool{"head": true, "tail": true, "count": true},
		approved: map[string]bool{"insert": true, "drop": true},
	},
	{
		// Monitor Log ring state: only the ring's own accessors may touch
		// slots, tombstones, or occupancy — sm/cp code goes through
		// Push/Pop/Remove.
		pkgSuffix: "/syncmon", typeName: "MonitorLog",
		fields: map[string]bool{
			"entries": true, "dead": true, "head": true,
			"size": true, "live": true, "maxLive": true,
		},
		approved: map[string]bool{
			"NewMonitorLog": true, "allocRing": true, "Push": true,
			"Pop": true, "Remove": true,
			// Whole-ring rewind from a snapshot image (see Restore above).
			"restore": true,
		},
	},
	{
		// The CP's spilled-condition table and the wake buffer waiters
		// travel through.
		pkgSuffix: "/cp", typeName: "Processor",
		fields: map[string]bool{"tab": true, "wakeBuf": true},
		approved: map[string]bool{
			"New": true, "Unregister": true, "drainPass": true,
			"runCheckResult": true,
			// Restore rewrites every container of the home from one saved
			// image, so the single-home invariant holds by construction.
			"Restore": true,
		},
	},
	{
		// The CP slab table's containers, check order, counters, and
		// indexes.
		pkgSuffix: "/cp", typeName: "spillTable",
		fields: map[string]bool{
			"ents": true, "freeEnt": true, "oHead": true, "oTail": true,
			"wnodes": true, "freeW": true, "idx": true, "addrs": true,
			"waiters": true,
		},
		approved: map[string]bool{
			"newSpillTable": true, "alloc": true, "free": true,
			"addWaiter": true, "removeWaiter": true, "dropWaiters": true,
			// Whole-table rewind from a snapshot image (see Restore above).
			"restore": true,
		},
	},
	{
		// A spilled condition's waiter list and check-order links.
		pkgSuffix: "/cp", typeName: "spillSlot",
		fields: map[string]bool{
			"wHead": true, "wTail": true, "wLen": true,
			"oPrev": true, "oNext": true, "next": true,
		},
		approved: map[string]bool{
			"alloc": true, "free": true, "addWaiter": true,
			"removeWaiter": true, "dropWaiters": true,
		},
	},
	{
		// Waiter node freelist links.
		pkgSuffix: "/cp", typeName: "wgNode",
		fields: map[string]bool{"next": true},
		approved: map[string]bool{
			"addWaiter": true, "removeWaiter": true, "dropWaiters": true,
		},
	},
	{
		// Fleet device placement: a workload id is homed on exactly one
		// device, the cross-device analogue of the waiter rule — a
		// double-homed workload would be paced (and its waiters woken)
		// twice. Only the attach/detach transfer pair moves ids.
		pkgSuffix: "/fleet", typeName: "Device",
		fields:   map[string]bool{"workloads": true},
		approved: map[string]bool{"attach": true, "detach": true},
	},
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, fd, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, fd, n.X)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && len(n.Args) > 0 {
					checkWrite(pass, fd, n.Args[0])
				}
			}
			// &s.field escaping into a call could alias the container, but
			// every legitimate use in-tree passes values; taking the
			// address of protected state is treated as a write.
			for _, arg := range n.Args {
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					checkWrite(pass, fd, u.X)
				}
			}
		}
		return true
	})
}

// checkWrite reports lhs when it denotes (or indexes into) a protected
// field and fd is not approved for it.
func checkWrite(pass *analysis.Pass, fd *ast.FuncDecl, lhs ast.Expr) {
	// Unwrap indexing/slicing: writing s.sets[i] (or through it) mutates
	// the container rooted at the field selector.
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.SliceExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return
	}
	owner := ownerNamed(selection.Recv())
	if owner == nil || owner.Obj().Pkg() == nil {
		return
	}
	for _, h := range homes {
		if !strings.HasSuffix(owner.Obj().Pkg().Path(), h.pkgSuffix) ||
			owner.Obj().Name() != h.typeName || !h.fields[field.Name()] {
			continue
		}
		if h.approved[fd.Name.Name] {
			return
		}
		pass.ReportRangef(sel, "%s.%s holds single-home waiter state; only %s may mutate it (got %s) — "+
			"route the transfer through an approved function so the waiter cannot end up in two homes",
			h.typeName, field.Name(), approvedList(h), fd.Name.Name)
		return
	}
}

func ownerNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func approvedList(h home) string {
	names := make([]string, 0, len(h.approved))
	for n := range h.approved {
		names = append(names, n)
	}
	// Deterministic message ordering.
	sort.Strings(names)
	return strings.Join(names, "/")
}
