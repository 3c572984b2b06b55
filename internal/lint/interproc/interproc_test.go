package interproc_test

import (
	"go/types"
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/interproc"
	"awgsim/internal/lint/load"
)

// summarize runs ipsummary over the top testdata package and returns its
// declared functions by name with the Result.
func summarize(t *testing.T) (*interproc.Result, map[string]*types.Func) {
	t.Helper()
	pkgs, err := load.Load("", "./testdata/src/ip/top")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	p := pkgs[0]
	v, err := interproc.Analyzer.Run(&analysis.Pass{
		Analyzer:  interproc.Analyzer,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		Report:    func(analysis.Diagnostic) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := v.(*interproc.Result)
	byName := map[string]*types.Func{}
	for _, f := range r.Order {
		byName[f.Name()] = f
	}
	return r, byName
}

func TestSCCSharesCallsAndImpurity(t *testing.T) {
	r, fn := summarize(t)
	for _, name := range []string{"Even", "Odd"} {
		s := r.Funcs[fn[name]]
		if !s.Impure {
			t.Errorf("%s: pure, want the component's field write to make it impure", name)
		}
		for _, callee := range []string{"Even", "Odd", "leaf"} {
			if !s.Calls[fn[callee]] {
				t.Errorf("%s: Calls lacks %s", name, callee)
			}
		}
		if len(s.Calls) != 3 {
			t.Errorf("%s: %d callees, want 3", name, len(s.Calls))
		}
	}
	if s := r.Funcs[fn["Chain"]]; !s.Calls[fn["leaf"]] {
		t.Error("Chain: Calls lacks leaf, two hops away")
	}
}

func TestPurity(t *testing.T) {
	r, fn := summarize(t)
	for name, impure := range map[string]bool{
		"leaf":         false,
		"Chain":        false, // same-package helper chain
		"ReadLabel":    false, // field read, local write
		"CopyLocal":    false, // copy into a local slice
		"CrossPure":    true,  // another package's code is never seen
		"SetHits":      true,  // qualified write to another package's variable
		"CopyInto":     true,
		"DeleteFrom":   true,
		"ClearAll":     true,
		"SortParam":    true, // sort writes its argument's elements
		"SortOwn":      false,
		"AliasWrite":   true, // a local alias of a parameter
		"LoopAlias":    true,
		"ClosureWrite": true,
		"AppendInto":   true, // append writes its first argument's elements
		"AppendLocal":  false,
		"RangeGlobal":  true, // an assigning range writes its key
		"RangeLocal":   false,
	} {
		if got := r.Funcs[fn[name]].Impure; got != impure {
			t.Errorf("%s: Impure = %v, want %v", name, got, impure)
		}
	}
}
