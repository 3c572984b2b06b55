package experiments

import (
	"runtime"
	"testing"
)

// TestCrossRunDeterminism renders every experiment twice at the quick scale
// with the worker pool forced wide (GOMAXPROCS >= 2, so sim.RunAll really
// interleaves whole simulations across goroutines) and requires
// byte-identical tables — the paper's replay guarantee checked end to end,
// through the same path the golden record pins. The first render goes
// through the package's shared quick Options, reusing cells earlier
// experiments ran; the second through fresh Options, which simulate every
// cell again. Later tests reuse the first render's cells.
func TestCrossRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite passes")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	render := func(e Experiment, o Options) string {
		out, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		return out.String()
	}
	for _, e := range All() {
		first := render(e, quick)
		second := render(e, NewOptions(true))
		if first != second {
			t.Errorf("%s: output differs between identical runs\n--- first\n%s\n--- second\n%s",
				e.ID, first, second)
		}
	}
}
