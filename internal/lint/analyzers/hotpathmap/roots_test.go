package hotpathmap

import (
	"go/ast"
	"strings"
	"testing"

	"awgsim/internal/lint/load"
)

// TestRootsNameDeclaredFunctions loads the module packages the scopes
// cover and checks that every root names a function declared in its
// package. Roots match by name, so a root a rename leaves behind would
// drop its hot path from the analysis without any error.
func TestRootsNameDeclaredFunctions(t *testing.T) {
	var paths []string
	for _, sc := range scopes {
		paths = append(paths, "awgsim/internal"+sc.pkgSuffix)
	}
	pkgs, err := load.Load("", paths...)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, sc := range scopes {
		var declared map[string]bool
		for _, p := range pkgs {
			if !strings.HasSuffix(p.PkgPath, sc.pkgSuffix) {
				continue
			}
			declared = map[string]bool{}
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
						declared[fd.Name.Name] = true
					}
				}
			}
		}
		if declared == nil {
			t.Errorf("scope %s: no module package loaded", sc.pkgSuffix)
			continue
		}
		for root := range sc.roots {
			if !declared[root] {
				t.Errorf("scope %s: root %q names no function declared in the package", sc.pkgSuffix, root)
			}
		}
	}
}
