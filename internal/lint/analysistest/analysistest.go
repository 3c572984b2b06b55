// Package analysistest runs one analyzer over packages under a testdata
// tree and checks its diagnostics against `// want` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on top of the in-repo
// framework.
//
// A want comment trails the offending line and holds one quoted regular
// expression per expected diagnostic:
//
//	rand.Intn(4) // want `math/rand global`
//	bad()        // want "first" "second"
//
// Analyzers run through checker.Diagnostics, awglint's own pass executor,
// which applies no `//lint:allow` directive — suppression belongs to
// checker.Run and is tested there — so seeded violations always surface.
package analysistest

import (
	"fmt"
	"go/ast"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/checker"
	"awgsim/internal/lint/load"
)

// Run loads ./testdata/src/<pkg> for each named pkg (relative to the
// calling test's package directory, where `go test` runs) and applies the
// analyzer, failing t on any mismatch between reported diagnostics and
// want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, p := range pkgs {
		patterns[i] = "./" + path.Join("testdata", "src", p)
	}
	loaded, err := load.Load("", patterns...)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if len(loaded) != len(pkgs) {
		t.Fatalf("analysistest: loaded %d packages for %d patterns", len(loaded), len(pkgs))
	}
	for _, p := range loaded {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("analysistest: %s: testdata does not type-check: %v", p.PkgPath, p.TypeErrors[0])
		}
		runOne(t, a, p)
	}
}

type key struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func runOne(t *testing.T, a *analysis.Analyzer, p *load.Package) {
	t.Helper()
	wants := map[key][]*want{}
	for _, f := range p.Files {
		collectWants(t, p, f, wants)
	}

	diags, err := checker.Diagnostics(p, a)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	for _, d := range diags {
		pos := p.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		var hit *want
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		hit.matched = true
	}
	keys := make([]key, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.raw)
			}
		}
	}
}

// collectWants parses `// want "re"...` trailing comments.
func collectWants(t *testing.T, p *load.Package, f *ast.File, wants map[key][]*want) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			k := key{pos.Filename, pos.Line}
			rest := strings.TrimSpace(text)
			for rest != "" {
				lit, remainder, err := cutString(rest)
				if err != nil {
					t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
				}
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
				}
				wants[k] = append(wants[k], &want{re: re, raw: lit})
				rest = strings.TrimSpace(remainder)
			}
		}
	}
}

// cutString consumes one leading Go string literal (interpreted or raw)
// from s and returns its value and the remainder.
func cutString(s string) (string, string, error) {
	if s == "" {
		return "", "", fmt.Errorf("empty literal")
	}
	switch s[0] {
	case '`':
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated raw string")
		}
		return s[1 : 1+end], s[end+2:], nil
	case '"':
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				val, err := strconv.Unquote(s[:i+1])
				return val, s[i+1:], err
			}
		}
		return "", "", fmt.Errorf("unterminated string")
	default:
		return "", "", fmt.Errorf("expected quoted regexp, got %q", s)
	}
}
