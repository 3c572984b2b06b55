// Command awglint is the repository's domain lint driver: a multichecker
// over the analyzers in internal/lint/analyzers, enforcing the invariants
// the simulator's determinism and forward-progress guarantees rest on.
//
// Usage:
//
//	go run ./cmd/awglint ./...          # report findings (exit 1 if any)
//	go run ./cmd/awglint -fix ./...     # also apply mechanical suggested fixes
//	go run ./cmd/awglint -h             # list the registered analyzers
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
	"awgsim/internal/lint/analyzers/hotpathmap"
	"awgsim/internal/lint/analyzers/nilness"
	"awgsim/internal/lint/analyzers/schedpast"
	"awgsim/internal/lint/analyzers/shadow"
	"awgsim/internal/lint/analyzers/simdeterminism"
	"awgsim/internal/lint/analyzers/waiterhome"
	"awgsim/internal/lint/checker"
)

func main() {
	checker.Main(
		simdeterminism.Analyzer,
		hotpathmap.Analyzer,
		waiterhome.Analyzer,
		ctorerr.Analyzer,
		schedpast.Analyzer,
		nilness.Analyzer,
		shadow.Analyzer,
	)
}
