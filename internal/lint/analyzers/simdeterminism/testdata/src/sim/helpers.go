package sim

import "strings"

// Helpers called in a map-range body: the body is judged by its syntax,
// so any call but a few builtins and conversions flags, pure or not.

var total int
var names []string

// canon is pure (string manipulation of its argument).
func canon(s string) string { return strings.ToUpper(strings.TrimSpace(s)) }

// double is pure through a local helper hop.
func double(x int) int { return addSelf(x) }

func addSelf(x int) int { return x + x }

// record writes package state: order-sensitive whenever called in a
// map-range body.
func record(s string) { names = append(names, s) }

// tally is pure-per-iteration? No: it accumulates into a package var.
func tally(x int) { total += x }

func pureHelperLoops(m map[string]int) int {
	acc := 0
	for k, v := range m { // want `iterates over a map in nondeterministic order`
		acc += double(v) + len(canon(k)) // pure helpers, still calls
	}
	return acc
}

func impureHelperLoops(m map[string]int) {
	for k := range m { // want `iterates over a map in nondeterministic order`
		record(k)
	}
	for _, v := range m { // want `iterates over a map in nondeterministic order`
		tally(v)
	}
}

func pureCallStmtLoop(m map[string]int) {
	for k := range m { // want `iterates over a map in nondeterministic order`
		canon(k) // pure call as a statement: result discarded, still a call
	}
}

// fill copies its argument into the caller's slice, a write the caller
// sees: which key lands in buf last depends on iteration order.
func fill(buf []byte, s string) { copy(buf, s) }

func copyHelperLoop(m map[string]int, buf []byte) {
	for k := range m { // want `iterates over a map in nondeterministic order`
		fill(buf, k)
	}
}
