package load

import (
	"go/types"
	"testing"
	"time"
)

// TestLoadModulePackage type-checks a real module package (and, behind it,
// its stdlib dependency chain from source) and spot-checks the type
// information analyzers rely on.
func TestLoadModulePackage(t *testing.T) {
	start := time.Now()
	pkgs, err := Load("", "awgsim/internal/event")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	t.Logf("loaded in %v", time.Since(start))
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "awgsim/internal/event" {
		t.Fatalf("PkgPath = %q", p.PkgPath)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("type errors in module package: %v", p.TypeErrors)
	}
	if !p.Module || p.Standard {
		t.Errorf("Module/Standard flags wrong: %+v", p)
	}
	eng := p.Types.Scope().Lookup("Engine")
	if eng == nil {
		t.Fatal("Engine not found in package scope")
	}
	named, ok := eng.Type().(*types.Named)
	if !ok {
		t.Fatalf("Engine is %T", eng.Type())
	}
	var sawAfterTask bool
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "AfterTask" {
			sawAfterTask = true
		}
	}
	if !sawAfterTask {
		t.Error("Engine.AfterTask method not resolved")
	}
}

// TestLoadMultiple loads several packages in one go list invocation and
// checks deterministic ordering.
func TestLoadMultiple(t *testing.T) {
	pkgs, err := Load("", "awgsim/internal/hashutil", "awgsim/internal/event")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if pkgs[0].PkgPath != "awgsim/internal/event" || pkgs[1].PkgPath != "awgsim/internal/hashutil" {
		t.Fatalf("order: %s, %s", pkgs[0].PkgPath, pkgs[1].PkgPath)
	}
}
