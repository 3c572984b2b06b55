// Package dep is the other package the interproc test's summaries call
// into. Summaries stay inside their package, so every call an importer
// makes here is impure to it, whatever the callee does.
package dep

// Hits is a package variable an importer writes through a qualified
// identifier.
var Hits int

// Pure has no effects at all.
func Pure(x int) int { return x * 2 }
