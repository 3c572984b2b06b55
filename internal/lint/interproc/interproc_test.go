package interproc_test

import (
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/interproc"
	"awgsim/internal/lint/load"
)

// runOver mirrors the driver: ipsummary over the dependency graph in
// dependency-first order with a shared fact store, returning the Result of
// the named root package.
func runOver(t *testing.T, wantPkg string) *interproc.Result {
	t.Helper()
	_, graph, err := load.LoadGraph("",
		"./testdata/src/ip/dep", "./testdata/src/ip/top")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	facts := map[string]any{}
	var out *interproc.Result
	for _, p := range graph {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", p.PkgPath, p.TypeErrors[0])
		}
		pass := &analysis.Pass{
			Analyzer:  interproc.Analyzer,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Report:    func(analysis.Diagnostic) {},
			ImportPackageFact: func(pkgPath string) (any, bool) {
				f, ok := facts[pkgPath]
				return f, ok
			},
		}
		pkgPath := p.PkgPath
		pass.ExportPackageFact = func(fact any) { facts[pkgPath] = fact }
		v, err := interproc.Analyzer.Run(pass)
		if err != nil {
			t.Fatalf("%s: %v", p.PkgPath, err)
		}
		if p.PkgPath == wantPkg {
			out = v.(*interproc.Result)
		}
	}
	if out == nil {
		t.Fatalf("package %s not analyzed", wantPkg)
	}
	return out
}

const (
	depPath = "awgsim/internal/lint/interproc/testdata/src/ip/dep"
	topPath = "awgsim/internal/lint/interproc/testdata/src/ip/top"
)

func summary(t *testing.T, r *interproc.Result, key string) *interproc.Summary {
	t.Helper()
	s, ok := r.Funcs[interproc.FuncKey(key)]
	if !ok {
		t.Fatalf("no summary for %s", key)
	}
	return s
}

func TestSCCAndCrossPackageComposition(t *testing.T) {
	r := runOver(t, topPath)

	// Even and Odd form one SCC: both carry Odd's cross-package effects.
	for _, fn := range []string{topPath + ".Even", topPath + ".Odd"} {
		s := summary(t, r, fn)
		if !s.Writes[interproc.FieldKey{Pkg: depPath, Type: "Counter", Field: "N"}] {
			t.Errorf("%s: missing Counter.N write through dep.Bump", fn)
		}
		if !s.Writes[interproc.FieldKey{Pkg: depPath, Type: "Counter", Field: "last"}] {
			t.Errorf("%s: missing Counter.last write through dep.Stamp", fn)
		}
		if !s.Writes[interproc.FieldKey{Pkg: topPath, Type: "State", Field: "hits"}] {
			t.Errorf("%s: missing State.hits write from SCC partner", fn)
		}
		if !s.Writes[interproc.FieldKey{Pkg: topPath, Type: "nested", Field: "gen"}] {
			t.Errorf("%s: missing nested.gen write (declaring-type keying)", fn)
		}
		if len(s.Nondet) == 0 {
			t.Errorf("%s: missing time.Now taint through dep.Stamp, summary %+v", fn, s)
		}
		if !s.Calls[interproc.FuncKey(depPath+".Stamp")] {
			t.Errorf("%s: transitive Calls missing dep.Stamp", fn)
		}
	}
}

func TestPurityAndReads(t *testing.T) {
	r := runOver(t, topPath)

	if s := summary(t, r, topPath+".Twice"); !s.Pure() {
		t.Errorf("Twice should be pure, got %+v", s)
	}
	if s := summary(t, r, topPath+".Even"); s.Pure() {
		t.Errorf("Even must not be pure")
	}
	// A field read is no effect: ReadLabel stays pure.
	s := summary(t, r, topPath+".ReadLabel")
	if len(s.Writes) != 0 || s.WritesNonLocal || !s.Pure() {
		t.Errorf("ReadLabel must be pure and not write, got %+v", s)
	}
}

func TestDepFactStandsAlone(t *testing.T) {
	r := runOver(t, depPath)
	s := summary(t, r, depPath+".Stamp")
	if len(s.Nondet) == 0 {
		t.Errorf("Stamp: expected time.Now taint, got %+v", s)
	}
	if s := summary(t, r, depPath+".Pure"); !s.Pure() {
		t.Errorf("dep.Pure should be pure, got %+v", s)
	}
}
