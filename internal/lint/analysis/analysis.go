// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library.
//
// This repository builds offline with no module cache, so the x/tools
// analysis framework cannot be added as a dependency. The subset here —
// Analyzer, Pass, Diagnostic, SuggestedFix/TextEdit — mirrors the upstream
// API shape closely enough that the domain analyzers in
// internal/lint/analyzers could be ported to the real framework by changing
// only their import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name, documentation, and a Run
// function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name> <reason>` directives. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, optionally
	// followed by a blank line and further prose.
	Doc string

	// Requires lists analyzers that must run on the same package first;
	// their return values are available through Pass.ResultOf.
	Requires []*Analyzer

	// Run applies the analyzer to a package. It reports findings via
	// Pass.Report/Reportf and may return an arbitrary result value, which
	// the driver hands to dependent analyzers through Pass.ResultOf.
	Run func(*Pass) (any, error)
}

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)

	// ResultOf holds the return values of this pass's Requires analyzers,
	// keyed by analyzer, for the same package.
	ResultOf map[*Analyzer]any
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef reports a formatted diagnostic over the node's extent.
func (p *Pass) ReportRangef(n ast.Node, format string, args ...any) {
	p.Report(Diagnostic{Pos: n.Pos(), End: n.End(), Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string

	// SuggestedFixes optionally carry mechanical rewrites for the finding;
	// `awglint -fix` applies the first fix of each surviving diagnostic.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained rewrite that addresses a diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
