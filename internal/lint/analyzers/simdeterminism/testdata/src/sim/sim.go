// Package sim seeds every violation class simdeterminism reports, plus the
// sanctioned idioms it must stay quiet on.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

func clocks() time.Duration {
	t := time.Now()       // want `time\.Now is a wall-clock read`
	d := time.Since(t)    // want `time\.Since is a wall-clock read`
	d += time.Until(t)    // want `time\.Until is a wall-clock read`
	d += t.Sub(t.Add(-d)) // methods on a Time value are fine
	return d
}

func globalRand() int {
	n := rand.Intn(4)                  // want `math/rand\.Intn draws from the process-global random stream`
	rand.Shuffle(n, func(i, j int) {}) // want `math/rand\.Shuffle draws from the process-global random stream`
	r := rand.New(rand.NewSource(1))   // explicit seeded generator: fine
	return r.Intn(4)
}

func commutative(m map[string]int) int {
	total := 0
	for _, v := range m { // counter accumulation commutes: fine
		total += v
	}
	return total
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m { // appended slice is sorted below: fine
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func orderLeaks(m map[string]int) []string {
	var out []string
	for k := range m { // want `iterates over a map in nondeterministic order`
		out = append(out, k)
	}
	return out // never sorted: first key wins by map order
}

func firstByMapOrder(m map[string]int) int {
	for k, v := range m { // want `iterates over a map in nondeterministic order`
		if k != "" {
			return v
		}
	}
	return 0
}

func callsInBody(m map[string]int, sink func(string)) {
	for k := range m { // want `iterates over a map in nondeterministic order`
		sink(k)
	}
}

func lastByMapOrder(m map[string][]int) int {
	last := 0
	for _, xs := range m { // want `iterates over a map in nondeterministic order`
		for _, last = range xs { // last ends as an element of whichever slice map order visits last
		}
	}
	return last
}

func nestedDefine(m map[string][]int) int {
	n := 0
	for _, xs := range m { // per-iteration temporaries, counted: fine
		for _, x := range xs {
			n += x
		}
	}
	return n
}
