package waiterhome

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"awgsim/internal/lint/load"
)

// TestHomesNameDeclaredState loads the module packages the homes cover and
// checks that every home names a struct type declared in its package, that
// each protected field is a field of that struct, and that each approved
// function is declared there. Homes match by name, so a name a rename
// leaves behind would guard nothing without any error.
func TestHomesNameDeclaredState(t *testing.T) {
	var paths []string
	for _, h := range homes {
		paths = append(paths, "awgsim/internal"+h.pkgSuffix) // go list drops repeats
	}
	pkgs, err := load.Load("", paths...)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, h := range homes {
		var pkg *load.Package
		for _, p := range pkgs {
			if strings.HasSuffix(p.PkgPath, h.pkgSuffix) {
				pkg = p
			}
		}
		if pkg == nil {
			t.Errorf("home %s.%s: no module package loaded", h.pkgSuffix, h.typeName)
			continue
		}
		obj, _ := pkg.Types.Scope().Lookup(h.typeName).(*types.TypeName)
		if obj == nil {
			t.Errorf("home %s.%s: the package declares no such type", h.pkgSuffix, h.typeName)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("home %s.%s: not a struct type", h.pkgSuffix, h.typeName)
			continue
		}
		fields := map[string]bool{}
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i).Name()] = true
		}
		for f := range h.fields {
			if !fields[f] {
				t.Errorf("home %s.%s: field %q is not declared on the type", h.pkgSuffix, h.typeName, f)
			}
		}
		declared := map[string]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					declared[fd.Name.Name] = true
				}
			}
		}
		for fn := range h.approved {
			if !declared[fn] {
				t.Errorf("home %s.%s: approved function %q is not declared in the package", h.pkgSuffix, h.typeName, fn)
			}
		}
	}
}
