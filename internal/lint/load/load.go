// Package load type-checks Go packages for the lint driver without any
// dependency outside the standard library and the go command.
//
// `go list -deps -json` (offline: every import resolves in-module or to
// GOROOT) yields the transitive package graph in dependency-first order;
// each package is then parsed and type-checked from source, with
// already-checked dependencies supplied through a map-backed importer. This
// replaces golang.org/x/tools/go/packages, which is unavailable in this
// build environment.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package.
type Package struct {
	PkgPath  string
	Dir      string
	GoFiles  []string // absolute paths, non-test files only
	Standard bool     // GOROOT package
	Module   bool     // belongs to the module being linted

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects soft type-checking problems. Module packages are
	// expected to be error-free (the tree builds); seeded lint testdata may
	// reference only in-module and stdlib identifiers, so errors here mean
	// the testdata itself is broken.
	TypeErrors []error
}

// listed mirrors the go list -json fields we consume.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool // listed only as a dependency, not matched by a pattern
	Module     *struct{ Path string }
	Error      *struct{ Err string }
	// DepsErrors carries problems in the dependency cone (go list -e
	// attaches an import cycle here on the member it emits first, with the
	// Error field only on a later member — checking just Error would let
	// type-checking fail on a masked "could not import" instead).
	DepsErrors []*struct{ Err string }
}

// Load lists patterns from dir (the module root when empty) and returns the
// type-checked packages the patterns matched, in deterministic (import
// path) order. Dependencies are checked too but not returned.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}

	// go list -deps emits dependencies before dependents, so a single
	// forward pass over the JSON stream type-checks everything; the
	// packages the patterns matched are the ones not marked DepOnly.
	fset := token.NewFileSet()
	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	imp := &mapImporter{typed: typed}
	var roots []*Package
	dec := json.NewDecoder(&out)
	for dec.More() {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if l.ImportPath == "unsafe" {
			continue
		}
		if l.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", l.ImportPath, l.Error.Err)
		}
		if len(l.DepsErrors) > 0 {
			return nil, fmt.Errorf("go list: %s: %s", l.ImportPath, l.DepsErrors[0].Err)
		}
		p, err := check(fset, &l, imp)
		if err != nil {
			return nil, err
		}
		typed[l.ImportPath] = p.Types
		if !l.DepOnly {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].PkgPath < roots[j].PkgPath })
	return roots, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, l *listed, imp *mapImporter) (*Package, error) {
	p := &Package{
		PkgPath:  l.ImportPath,
		Dir:      l.Dir,
		Standard: l.Standard,
		Module:   l.Module != nil,
		Fset:     fset,
	}
	for _, f := range l.GoFiles {
		p.GoFiles = append(p.GoFiles, filepath.Join(l.Dir, f))
	}
	for _, path := range p.GoFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		p.Files = append(p.Files, f)
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	cfg := types.Config{
		Importer: imp.forPackage(l),
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	tp, err := cfg.Check(l.ImportPath, fset, p.Files, p.Info)
	p.Types = tp
	// Hard failures in standard-library internals don't block linting the
	// module; only surface errors for module packages, whose source must be
	// sound for analyzer results to mean anything.
	if err != nil && !l.Standard {
		return nil, fmt.Errorf("type-checking %s: %v", l.ImportPath, err)
	}
	return p, nil
}

// mapImporter resolves imports from the already-type-checked set, applying
// the per-package ImportMap (vendor/ or version rewrites from go list).
type mapImporter struct {
	typed map[string]*types.Package
}

type scopedImporter struct {
	*mapImporter
	importMap map[string]string
}

func (m *mapImporter) forPackage(l *listed) types.ImporterFrom {
	return &scopedImporter{mapImporter: m, importMap: l.ImportMap}
}

func (s *scopedImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *scopedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mapped, ok := s.importMap[path]; ok {
		path = mapped
	}
	if p, ok := s.typed[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("load: import %q not in dependency graph", path)
}
