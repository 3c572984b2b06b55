package checker

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/analyzers/simdeterminism"
)

// TestDirectives runs the real simdeterminism analyzer over the directive
// testdata: valid directives suppress (same line and line above), while an
// unknown analyzer name or a missing reason is itself a finding and leaves
// the diagnostic unsuppressed.
func TestDirectives(t *testing.T) {
	findings, err := Run("", []string{"./testdata/src/dirs"},
		[]*analysis.Analyzer{simdeterminism.Analyzer}, false)
	if err != nil {
		t.Fatal(err)
	}
	type fkey struct {
		line     int
		analyzer string
	}
	got := map[fkey]string{}
	for _, f := range findings {
		k := fkey{f.Position.Line, f.Analyzer}
		if _, dup := got[k]; dup {
			t.Errorf("duplicate finding for %+v", k)
		}
		got[k] = f.Message
	}
	wants := []struct {
		line     int
		analyzer string
		contains string
	}{
		{13, "lintdirective", `unknown analyzer "nosuchanalyzer"`},
		{13, "simdeterminism", "wall-clock read"}, // invalid directive suppresses nothing
		{15, "lintdirective", "needs a reason"},
		{15, "simdeterminism", "wall-clock read"},
		{17, "simdeterminism", "wall-clock read"}, // no directive at all
		// Lines 21-22 (inside the multi-line initializer under a directive)
		// must be suppressed: the directive spans the statement's extent.
		{27, "simdeterminism", "wall-clock read"}, // blank line breaks directive adjacency
	}
	for _, w := range wants {
		msg, ok := got[fkey{w.line, w.analyzer}]
		if !ok {
			t.Errorf("line %d: missing %s finding", w.line, w.analyzer)
			continue
		}
		if !strings.Contains(msg, w.contains) {
			t.Errorf("line %d %s: message %q does not contain %q", w.line, w.analyzer, msg, w.contains)
		}
		delete(got, fkey{w.line, w.analyzer})
	}
	for k, msg := range got {
		t.Errorf("unexpected finding at line %d (%s): %s", k.line, k.analyzer, msg)
	}
}

// dirsFindings is how many findings the dirs testdata yields with the
// simdeterminism analyzer (kept in sync with TestDirectives's wants).
const dirsFindings = 6

// findingLine is the plain rendering of one finding:
// `file:line:col: analyzer: message`.
var findingLine = regexp.MustCompile(`^([^:]+):(\d+):(\d+): \w+: .+$`)

// TestPlainOutput drives MainInto and checks the rendering: exit 1, one
// `file:line:col: analyzer: message` line per finding with a
// workdir-relative file, sorted by (file, line, column).
func TestPlainOutput(t *testing.T) {
	var buf bytes.Buffer
	code := MainInto(&buf, []string{"./testdata/src/dirs"}, simdeterminism.Analyzer)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, buf.String())
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != dirsFindings {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), dirsFindings, buf.String())
	}
	type pos struct {
		file      string
		line, col int
	}
	var prev pos
	for i, l := range lines {
		m := findingLine.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("line %d %q is not file:line:col: analyzer: message", i, l)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		p := pos{m[1], line, col}
		if filepath.IsAbs(p.file) || !strings.HasPrefix(p.file, filepath.Join("testdata", "src", "dirs")) {
			t.Errorf("line %d: file %q not relative to the working directory", i, p.file)
		}
		if i > 0 && (prev.file > p.file ||
			(prev.file == p.file && (prev.line > p.line || (prev.line == p.line && prev.col > p.col)))) {
			t.Errorf("lines %d and %d out of (file, line, column) order:\n%s\n%s", i-1, i, lines[i-1], l)
		}
		prev = p
	}
}

// TestApplyFixes applies a suggested fix through the same path `awglint
// -fix` uses and checks the file rewrite.
func TestApplyFixes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.go")
	src := "package f\n\nfunc g() { schedule(0) }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file := fset.AddFile(path, -1, len(src))
	file.SetLinesForContent([]byte(src))
	off := strings.Index(src, "0")
	pos := file.Pos(off)
	end := file.Pos(off + 1)
	f := Finding{
		Position: fset.Position(pos),
		Analyzer: "schedpast",
		Fset:     fset,
		Diag: analysis.Diagnostic{
			Pos: pos, End: end,
			Message: "constant zero delay",
			SuggestedFixes: []analysis.SuggestedFix{{
				Message:   "use one cycle",
				TextEdits: []analysis.TextEdit{{Pos: pos, End: end, NewText: []byte("1")}},
			}},
		},
	}
	if err := applyFixes([]Finding{f}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "package f\n\nfunc g() { schedule(1) }\n"
	if string(got) != want {
		t.Errorf("after fix:\n%s\nwant:\n%s", got, want)
	}
}
