// Package checker is the multichecker driver behind cmd/awglint: it loads
// packages, applies every registered analyzer (running each analyzer's
// Requires first, on the same package), honors `//lint:allow` suppression
// directives, renders diagnostics deterministically, and can apply
// suggested fixes in place.
package checker

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/load"
)

// Finding is one rendered diagnostic.
type Finding struct {
	Package  string
	Position token.Position
	Analyzer string
	Message  string
	Diag     analysis.Diagnostic
	Fset     *token.FileSet
}

// String renders the finding in the conventional path:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// directive is one parsed `//lint:allow <analyzer> <reason>` comment. It
// suppresses diagnostics of the named analyzer on the lines [line, endLine]:
// its own line plus the full extent of the statement, field, or declaration
// that starts on its line or the next (so a directive above a multi-line
// call covers every line of that call, not just the first).
type directive struct {
	file     string
	line     int
	endLine  int
	analyzer string
	reason   string
	pos      token.Pos
}

// Run loads patterns (from dir, module root when empty), applies the
// analyzers to every module package matched, and returns the surviving
// findings in deterministic order. When fix is set, suggested fixes of
// surviving findings are applied to the source files before returning.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer, fix bool) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}

	// Directives may name any analyzer that runs, required ones included.
	known := map[string]*analysis.Analyzer{}
	var add func(a *analysis.Analyzer)
	add = func(a *analysis.Analyzer) {
		known[a.Name] = a
		for _, req := range a.Requires {
			add(req)
		}
	}
	for _, a := range analyzers {
		add(a)
	}

	var findings []Finding
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: type errors: %v", p.PkgPath, p.TypeErrors[0])
		}
		directives, bad := parseDirectives(p, known)
		findings = append(findings, bad...)
		done := map[*analysis.Analyzer]passResult{}
		for _, a := range analyzers {
			res, err := run(p, a, done)
			if err != nil {
				return nil, err
			}
			for _, d := range res.diags {
				pos := p.Fset.Position(d.Pos)
				if suppressed(directives, a.Name, pos) {
					continue
				}
				findings = append(findings, Finding{
					Package:  p.PkgPath,
					Position: pos,
					Analyzer: a.Name,
					Message:  d.Message,
					Diag:     d,
					Fset:     p.Fset,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	if fix {
		if err := applyFixes(findings); err != nil {
			return findings, err
		}
	}
	return findings, nil
}

// Diagnostics runs a on p, after the analyzers a requires, and returns
// what a reported. It applies no //lint:allow directive: the analysistest
// harness checks analyzers through it, so seeded violations always
// surface.
func Diagnostics(p *load.Package, a *analysis.Analyzer) ([]analysis.Diagnostic, error) {
	res, err := run(p, a, map[*analysis.Analyzer]passResult{})
	return res.diags, err
}

// passResult is one analyzer's return value and diagnostics on one
// package.
type passResult struct {
	value any
	diags []analysis.Diagnostic
}

// run executes a on p, running its Requires first and handing their
// results to the pass. done memoizes the package's passes, so an analyzer
// that several others require runs once.
func run(p *load.Package, a *analysis.Analyzer, done map[*analysis.Analyzer]passResult) (passResult, error) {
	if res, ok := done[a]; ok {
		return res, nil
	}
	resultOf := map[*analysis.Analyzer]any{}
	for _, req := range a.Requires {
		res, err := run(p, req, done)
		if err != nil {
			return passResult{}, err
		}
		resultOf[req] = res.value
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		ResultOf:  resultOf,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	value, err := a.Run(pass)
	if err != nil {
		return passResult{}, fmt.Errorf("%s: analyzer %s: %v", p.PkgPath, a.Name, err)
	}
	res := passResult{value: value, diags: diags}
	done[a] = res
	return res, nil
}

// parseDirectives extracts //lint:allow directives from a package's
// comments. Malformed directives (missing reason) and directives naming an
// analyzer the driver does not know are themselves reported as findings, so
// a typo cannot silently suppress nothing.
func parseDirectives(p *load.Package, known map[string]*analysis.Analyzer) ([]directive, []Finding) {
	var ds []directive
	var bad []Finding
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bad = append(bad, Finding{Package: p.PkgPath, Position: pos, Analyzer: "lintdirective",
						Message: "//lint:allow directive missing analyzer name"})
					continue
				}
				if _, ok := known[fields[0]]; !ok {
					bad = append(bad, Finding{Package: p.PkgPath, Position: pos, Analyzer: "lintdirective",
						Message: fmt.Sprintf("//lint:allow names unknown analyzer %q (known: %s)",
							fields[0], strings.Join(names, ", "))})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Finding{Package: p.PkgPath, Position: pos, Analyzer: "lintdirective",
						Message: fmt.Sprintf("//lint:allow %s needs a reason", fields[0])})
					continue
				}
				ds = append(ds, directive{
					file:     pos.Filename,
					line:     pos.Line,
					endLine:  pos.Line + 1,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      c.Pos(),
				})
			}
		}
		extendDirectives(p.Fset, f, ds)
	}
	return ds, bad
}

// extendDirectives widens each directive's coverage to the full extent of
// the outermost statement, struct field, or declaration that begins on the
// directive's line or the line below it. Without this, a directive above a
// multi-line call or composite literal would only cover the first line,
// while analyzers may report at a position further down inside it.
func extendDirectives(fset *token.FileSet, f *ast.File, ds []directive) {
	if len(ds) == 0 {
		return
	}
	fileName := fset.Position(f.Pos()).Filename
	type idx int
	starts := map[int][]idx{} // start line -> directives it may extend
	for i := range ds {
		if ds[i].file != fileName {
			continue
		}
		starts[ds[i].line] = append(starts[ds[i].line], idx(i))
		starts[ds[i].line+1] = append(starts[ds[i].line+1], idx(i))
	}
	if len(starts) == 0 {
		return
	}
	consider := func(n ast.Node) {
		startLine := fset.Position(n.Pos()).Line
		targets, ok := starts[startLine]
		if !ok {
			return
		}
		endLine := fset.Position(n.End()).Line
		for _, i := range targets {
			if endLine > ds[i].endLine {
				ds[i].endLine = endLine
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.Field:
			consider(n)
		}
		return true
	})
}

// suppressed reports whether a directive covers a diagnostic of analyzer at
// pos: same file, named analyzer, and the diagnostic's line falls within
// the directive's extended extent.
func suppressed(ds []directive, analyzer string, pos token.Position) bool {
	for _, d := range ds {
		if d.analyzer == analyzer && d.file == pos.Filename &&
			pos.Line >= d.line && pos.Line <= d.endLine {
			return true
		}
	}
	return false
}

// applyFixes applies the first suggested fix of every finding that has one,
// rewriting files bottom-up so earlier edits don't shift later offsets.
func applyFixes(findings []Finding) error {
	type edit struct {
		start, end int
		text       []byte
	}
	byFile := map[string][]edit{}
	for _, f := range findings {
		if len(f.Diag.SuggestedFixes) == 0 {
			continue
		}
		for _, te := range f.Diag.SuggestedFixes[0].TextEdits {
			start := f.Fset.Position(te.Pos)
			end := start
			if te.End.IsValid() {
				end = f.Fset.Position(te.End)
			}
			if start.Filename == "" || end.Filename != start.Filename {
				return fmt.Errorf("fix for %s has invalid edit range", f)
			}
			byFile[start.Filename] = append(byFile[start.Filename],
				edit{start.Offset, end.Offset, te.NewText})
		}
	}
	files := make([]string, 0, len(byFile))
	for file := range byFile {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		edits := byFile[file]
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		prev := len(src) + 1
		for _, e := range edits {
			if e.end > prev || e.start > e.end || e.end > len(src) {
				return fmt.Errorf("%s: overlapping or out-of-range suggested fixes", file)
			}
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
			prev = e.start
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// relTo renders path relative to wd when it lies beneath it.
func relTo(path, wd string) string {
	if wd == "" {
		return path
	}
	if rel, ok := strings.CutPrefix(path, wd+string(os.PathSeparator)); ok {
		return rel
	}
	return path
}

// Main is the cmd/awglint entry point: parses flags and package patterns,
// prints findings to stderr, and exits non-zero when any survive.
func Main(analyzers ...*analysis.Analyzer) {
	os.Exit(MainInto(os.Stderr, os.Args[1:], analyzers...))
}

// MainInto is Main with injectable output and arguments, for testing.
// Findings print one per line as `file:line:col: analyzer: message`, with
// file relative to the working directory. The -fix flag applies suggested
// fixes.
func MainInto(w io.Writer, args []string, analyzers ...*analysis.Analyzer) int {
	fix := false
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-fix" || a == "--fix":
			fix = true
		case a == "-h" || a == "--help":
			fmt.Fprintln(w, "usage: awglint [-fix] [packages]")
			fmt.Fprintln(w, "analyzers:")
			for _, an := range analyzers {
				doc, _, _ := strings.Cut(an.Doc, "\n")
				fmt.Fprintf(w, "  %-16s %s\n", an.Name, doc)
			}
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(w, "awglint: unknown flag %s\n", a)
			return 2
		default:
			patterns = append(patterns, a)
		}
	}

	findings, err := Run("", patterns, analyzers, fix)
	if err != nil {
		fmt.Fprintf(w, "awglint: %v\n", err)
		return 2
	}
	wd, _ := os.Getwd()
	for _, f := range findings {
		pos := f.Position
		pos.Filename = relTo(pos.Filename, wd)
		fmt.Fprintf(w, "%s: %s: %s\n", pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
