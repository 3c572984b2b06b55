package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module in a temp dir: path->contents,
// plus a minimal go.mod. The loader shells out to `go list`, so negative
// shapes (cycles, broken imports) must live in a real module, not in this
// repo's tree where they would break every build.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module x\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadImportCycle: a two-package import cycle must surface as a load
// error naming the cycle, not a hang, panic, or silent partial graph.
func TestLoadImportCycle(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport _ \"x/b\"\n\nvar A = 1\n",
		"b/b.go": "package b\n\nimport _ \"x/a\"\n\nvar B = 1\n",
	})
	_, err := Load(dir, "./a")
	if err == nil {
		t.Fatal("Load succeeded on an import cycle")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error does not name the cycle: %v", err)
	}
}

// TestLoadMissingImport: an import that resolves nowhere (not in-module,
// not GOROOT — the loader runs offline) is a load error naming the missing
// path.
func TestLoadMissingImport(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"c/c.go": "package c\n\nimport _ \"nosuch/missing\"\n\nvar C = 1\n",
	})
	_, err := Load(dir, "./c")
	if err == nil {
		t.Fatal("Load succeeded with an unresolvable import")
	}
	if !strings.Contains(err.Error(), "nosuch/missing") {
		t.Errorf("error does not name the missing package: %v", err)
	}
}

// TestLoadBuildTags: files excluded by build constraints must not reach the
// parser or type checker — the tagged file here references an undefined
// symbol and would fail the package if loaded.
func TestLoadBuildTags(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"d/d.go": "package d\n\nvar Kept = 1\n",
		"d/tagged.go": "//go:build simstub\n\npackage d\n\n" +
			"var Dropped = thisSymbolDoesNotExist\n",
	})
	roots, err := Load(dir, "./d")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(roots) != 1 {
		t.Fatalf("got %d packages, want 1", len(roots))
	}
	p := roots[0]
	if len(p.TypeErrors) > 0 {
		t.Fatalf("tagged-out file reached the type checker: %v", p.TypeErrors)
	}
	if len(p.GoFiles) != 1 || filepath.Base(p.GoFiles[0]) != "d.go" {
		t.Fatalf("GoFiles = %v, want just d.go", p.GoFiles)
	}
	if p.Types.Scope().Lookup("Kept") == nil {
		t.Error("Kept missing from package scope")
	}
	if p.Types.Scope().Lookup("Dropped") != nil {
		t.Error("Dropped (build-tagged out) leaked into the package scope")
	}
}
