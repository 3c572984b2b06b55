package experiments

import (
	"runtime"
	"testing"

	"awgsim/internal/sim"
)

// TestCrossRunDeterminism renders every experiment twice at the quick scale
// with the worker pool forced wide (GOMAXPROCS >= 2, so sim.RunAll really
// interleaves whole simulations across goroutines) and requires
// byte-identical tables — the paper's replay guarantee checked end to end,
// through the same path the golden record pins. Each render starts from an
// empty run cache, so the second one simulates again rather than replaying
// the first; both must then replay the same number of runs, the duplicates
// within one render.
func TestCrossRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite passes")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	render := func(e Experiment) (string, uint64) {
		sim.ResetCache()
		out, err := e.Run(quick)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		return out.String(), sim.CacheHits()
	}
	for _, e := range All() {
		first, firstHits := render(e)
		second, secondHits := render(e)
		if first != second {
			t.Errorf("%s: output differs between identical runs\n--- first\n%s\n--- second\n%s",
				e.ID, first, second)
		}
		if firstHits != secondHits {
			t.Errorf("%s: the renders replayed %d and %d runs from the cache; both start empty", e.ID, firstHits, secondHits)
		}
	}
}
