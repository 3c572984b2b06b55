package experiments

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"awgsim/internal/kernels"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// TestCrossRunDeterminism renders every experiment's record section twice
// at the quick scale with the worker pool forced wide (GOMAXPROCS >= 2, so
// sim.RunAll really interleaves whole simulations across goroutines) and
// requires byte-identical sections — the paper's replay guarantee checked
// end to end, through the function awgexp prints the golden record with.
// The first render goes through the package's shared quick Options,
// reusing cells earlier experiments ran; the second through fresh Options,
// which simulate every cell again. Later tests reuse the first render's
// cells. The first render must also equal its section of the committed
// quick record, awgexp_quick.txt, as `make golden` requires.
func TestCrossRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite passes")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	b, err := os.ReadFile("../../awgexp_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	record := recordSections(string(b))
	render := func(e Experiment, o Options) string {
		out, err := e.Section(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		return out
	}
	for _, e := range All() {
		first := render(e, quick)
		second := render(e, NewOptions(true))
		if first != second {
			t.Errorf("%s: output differs between identical runs\n--- first\n%s\n--- second\n%s",
				e.ID, first, second)
		}
		sec, ok := record[e.ID]
		if !ok {
			t.Errorf("%s: awgexp_quick.txt has no section for it", e.ID)
		} else if n, got, want := firstDiff(first, sec); n > 0 {
			t.Errorf("%s: line %d of its section differs from awgexp_quick.txt\n  got:  %q\n  want: %q\n"+
				"(after an intended model change, regenerate the record: go run ./cmd/awgexp -quick > awgexp_quick.txt)",
				e.ID, n, got, want)
		}
	}
}

// footer matches the line that ends each section of a record.
var footer = regexp.MustCompile(`(?m)^\[([a-z0-9]+): sim_runs \d+, sim_cycles \d+\]\n`)

// recordSections splits a golden record into its sections, keyed by
// experiment ID: each runs through its footer, and a blank line separates
// it from the next.
func recordSections(record string) map[string]string {
	sections := map[string]string{}
	start := 0
	for _, m := range footer.FindAllStringSubmatchIndex(record, -1) {
		sections[record[m[2]:m[3]]] = record[start:m[1]]
		start = m[1] + 1
	}
	return sections
}

// firstDiff reports the 1-based number of the first line at which got and
// want differ, with both lines ("" past the end of either), or 0 if they
// are equal.
func firstDiff(got, want string) (int, string, string) {
	if got == want {
		return 0, "", ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}

// TestSection renders a one-run experiment whose worked example runs a
// second simulation: the footer counts the table's run only, the example's
// text sits between the table and the footer, and an example that fails
// fails the section, which then renders nothing.
func TestSection(t *testing.T) {
	cfg := sim.Config{
		Benchmark: "SPM_G",
		Policy:    "AWG",
		Params:    kernels.Params{NumWGs: 8, Groups: 8, WIsPerWG: 64, Iters: 1, CSWork: 10, OutsideWork: 10},
	}
	var cycles uint64
	e := Experiment{ID: "demo", Title: "Demo", Run: func(Options) (*metrics.Table, error) {
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		cycles = res.Cycles
		tab := metrics.NewTable("Demo", "Benchmark", "Cycles")
		tab.AddRow(res.Benchmark, res.Cycles)
		return tab, nil
	}, Example: func(Options) (string, error) {
		if _, err := sim.Run(cfg); err != nil {
			return "", err
		}
		return "worked example", nil
	}}
	opts := NewOptions(true)

	got, err := e.Section(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := e.Run(opts)
	want := tab.String() + "\nworked example\n" + fmt.Sprintf("[demo: sim_runs 1, sim_cycles %d]\n", cycles)
	if got != want {
		t.Fatalf("section:\n%s\nwant:\n%s", got, want)
	}

	e.Example = func(Options) (string, error) { return "partial", errors.New("no deadlock") }
	got, err = e.Section(opts)
	if err == nil || !strings.Contains(err.Error(), "worked example: no deadlock") {
		t.Errorf("failing example: error %v, want the example's error", err)
	}
	if got != "" {
		t.Errorf("failing example rendered %q, want nothing", got)
	}
}
