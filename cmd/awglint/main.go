// Command awglint is the repository's domain lint driver: a multichecker
// over the analyzers in internal/lint/analyzers, enforcing the invariants
// the simulator's determinism and forward-progress guarantees rest on.
//
// Usage:
//
//	go run ./cmd/awglint ./...                     # report findings (exit 1 if any)
//	go run ./cmd/awglint -fix ./...                # also apply mechanical suggested fixes
//	go run ./cmd/awglint -json ./...               # machine-readable findings
//	go run ./cmd/awglint -write-baseline B ./...   # snapshot current findings
//	go run ./cmd/awglint -baseline B ./...         # report only new findings
//
// Findings are suppressed line-by-line with a justified directive:
//
//	start := time.Now() //lint:allow simdeterminism wall-clock for a progress line, never in simulated state
//
// An unknown analyzer name in a directive is itself reported, so a typo
// cannot silently disable a check.
package main

import (
	"awgsim/internal/lint/analyzers/ctorerr"
	"awgsim/internal/lint/analyzers/fpcover"
	"awgsim/internal/lint/analyzers/hotpathalloc"
	"awgsim/internal/lint/analyzers/hotpathmap"
	"awgsim/internal/lint/analyzers/nilness"
	"awgsim/internal/lint/analyzers/replaypure"
	"awgsim/internal/lint/analyzers/schedpast"
	"awgsim/internal/lint/analyzers/shadow"
	"awgsim/internal/lint/analyzers/simdeterminism"
	"awgsim/internal/lint/analyzers/snapcover"
	"awgsim/internal/lint/analyzers/waiterhome"
	"awgsim/internal/lint/checker"
)

func main() {
	checker.Main(
		simdeterminism.Analyzer,
		hotpathalloc.Analyzer,
		hotpathmap.Analyzer,
		snapcover.Analyzer,
		fpcover.Analyzer,
		replaypure.Analyzer,
		waiterhome.Analyzer,
		ctorerr.Analyzer,
		schedpast.Analyzer,
		nilness.Analyzer,
		shadow.Analyzer,
	)
}
