// Package top exercises the summary lattice: a mutually recursive pair
// (one SCC), writes a caller sees (through a field, another package's
// variable, or a parameter's elements via copy, delete, clear, append, a
// sort, or a local alias), reads and local writes that it does not, and a
// call into another package.
package top

import (
	"sort"

	"awgsim/internal/lint/interproc/testdata/src/ip/dep"
)

// State carries fields for read/write classification.
type State struct {
	hits  int
	label string
}

// Even and Odd form one strongly connected component: Even's field write
// makes Odd impure too, and both reach each other and leaf.
func Even(s *State, n int) {
	if n == 0 {
		return
	}
	s.hits++
	Odd(s, n-1)
}

// Odd writes nothing itself.
func Odd(s *State, n int) {
	leaf(n)
	Even(s, n-1)
}

func leaf(n int) int { return n + 1 }

// Chain is pure through two same-package hops.
func Chain(x int) int { return hop(x) + 1 }

func hop(x int) int { return leaf(x) * 2 }

// ReadLabel reads a field and writes only a local.
func ReadLabel(s *State) string {
	out := s.label
	out += "!"
	return out
}

// CopyLocal copies into a slice it made: no caller sees the write.
func CopyLocal(src []int) []int {
	buf := make([]int, len(src))
	copy(buf, src)
	return buf
}

// CrossPure calls dep.Pure, whose purity the summary cannot see.
func CrossPure(x int) int { return dep.Pure(x) }

// SetHits writes another package's variable.
func SetHits() { dep.Hits = 1 }

// CopyInto, DeleteFrom and ClearAll write their parameter's elements
// through a builtin.
func CopyInto(dst, src []int) { copy(dst, src) }

func DeleteFrom(m map[string]int, k string) { delete(m, k) }

func ClearAll(s []int) { clear(s) }

// SortParam sorts its parameter's elements in place; SortOwn sorts a
// slice it made.
func SortParam(s []int) { sort.Ints(s) }

func SortOwn(n int) []int {
	s := make([]int, n)
	sort.Ints(s)
	return s
}

// AliasWrite writes its parameter's elements through a local alias, and
// LoopAlias through a local that becomes the alias only on the loop's
// next iteration.
func AliasWrite(s []int) {
	t := s
	t[0] = 1
}

func LoopAlias(s []int) {
	t := make([]int, 1)
	for i := 0; i < 2; i++ {
		t[0] = i
		t = s
	}
}

// ClosureWrite writes its parameter's elements through the parameter of a
// function literal it calls in place.
func ClosureWrite(s []int) {
	func(t []int) { t[0] = 1 }(s)
}

// AppendInto appends into its parameter's spare capacity; AppendLocal
// appends to and writes a slice it made.
func AppendInto(s []int) []int { return append(s[:0], 1) }

func AppendLocal() []int {
	var b []int
	b = append(b, 1)
	b[0] = 2
	return b
}

// G is a package variable a range statement assigns.
var G int

// RangeGlobal assigns G in a range statement; RangeLocal assigns a local.
func RangeGlobal(m map[int]bool) {
	for G = range m {
	}
}

func RangeLocal(m map[int]bool) (n int) {
	var k int
	for k = range m {
		n += k
	}
	return n
}
