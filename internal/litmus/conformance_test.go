package litmus

import (
	"strings"
	"testing"

	"awgsim/internal/kernels"
	"awgsim/internal/sim"
)

// quickPolicies mirrors the experiment's quick policy set.
var testPolicies = []string{"Baseline", "Timeout", "MonNR-One", "AWG"}

// TestConformanceSweep runs a small generated sweep end-to-end and checks
// the invariant the whole harness exists to enforce: IFP-providing
// policies pass every cell; Baseline fails only patterns that nothing
// weaker than IFP requires, and those failures are marked expected.
func TestConformanceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred simulations")
	}
	pats := Generate(1, 16)
	s := Conformance(pats, testPolicies, Occupancies(), 0, 0)
	if got, want := len(s.Cells), len(pats)*len(testPolicies)*len(Occupancies()); got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	if un := s.Unexpected(); len(un) > 0 {
		t.Fatalf("%d unexpected conformance violations, first: %s", len(un), un[0].Detail)
	}
	sawExpected := false
	for _, v := range s.Violations {
		if v.Cell.Policy != "Baseline" {
			t.Errorf("expected violation attributed to %s (only Baseline is non-IFP here): %s", v.Cell.Policy, v.Detail)
		}
		if v.Model != IFP {
			t.Errorf("expected violation against %s, want IFP only: %s", v.Model, v.Detail)
		}
		sawExpected = true
	}
	if !sawExpected {
		t.Errorf("no expected Baseline IFP failures in %d patterns; sweep too weak to discriminate", len(pats))
	}
	// The matrix renders a row per policy x occupancy and never mixes
	// FAIL into a clean sweep.
	m := s.Matrix("test").String()
	if strings.Contains(m, "FAIL") {
		t.Errorf("matrix contains FAIL cells:\n%s", m)
	}
	if !strings.Contains(m, "no-IFP") {
		t.Errorf("matrix has no expected no-IFP cells:\n%s", m)
	}
}

// TestConformanceDeterministic: two sweeps over the same patterns render
// byte-identical matrices and summaries (the property the experiment's
// golden pin relies on). Each sweep simulates every distinct run itself:
// it reuses only its own duplicates, the 8 of its 96 cells whose
// occupancies share a Cap, never the other sweep's runs.
func TestConformanceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred simulations")
	}
	pats := Generate(4, 8)
	sweep := func(workers int) *Sweep {
		before := sim.CacheHits()
		s := Conformance(pats, testPolicies, Occupancies(), 0, workers)
		if got := sim.CacheHits() - before; len(s.Cells) != 96 || got != 8 {
			t.Fatalf("%d-worker sweep reused %d of %d cells, want 8 of 96", workers, got, len(s.Cells))
		}
		return s
	}
	a := sweep(2)
	b := sweep(3)
	if a.Matrix("d").String() != b.Matrix("d").String() {
		t.Fatalf("matrix differs across worker counts")
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summary differs across worker counts")
	}
}

// TestConformanceReusesDuplicates: a sweep simulates each distinct
// (pattern name, policy, capacity) once and copies the outcome to the
// other cells. The pattern list repeats a pattern (under another index,
// so the sweep must key on the name), the two-WG pattern's half and one
// occupancies share a Cap, and an unknown policy fails construction in
// every cell. Every cell carries its own pattern's oracle verdicts at its
// Cap. Totals counts one run per cell that ran, copies included; the
// copies of a construction failure count nothing.
func TestConformanceReusesDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	two := mustDecode(t, "litmus:1:e0.1;s0.1")
	three := mustDecode(t, "litmus:1:a0,g1.1;a1,g2.1;a2,g0.1")
	// fwd is two's forward handoff: the same caps, other verdicts (an
	// in-order scheduler completes it), so a cell given another
	// pattern's verdicts shows.
	fwd := mustDecode(t, "litmus:1:s0.1;e0.1")
	pats := []kernels.Litmus{two, three, mustDecode(t, two.Encode()), fwd}
	policies := []string{"Baseline", "AWG", "NoSuchPolicy"}
	sim.ResetTotals()
	sim.ResetCache()
	s := Conformance(pats, policies, Occupancies(), 0, 0)
	type run struct {
		name, policy string
		wgCap        int
	}
	first := map[run]Cell{}
	ran, distinct := 0, 0
	for _, c := range s.Cells {
		for _, m := range Models() {
			if want := MustTerminate(s.Patterns[c.Pattern], m, c.Cap); c.Must[m] != want {
				t.Errorf("%s at cap %d: Must[%s] = %v, the oracle says %v", c.Policy, c.Cap, m, c.Must[m], want)
			}
		}
		if c.Policy == "NoSuchPolicy" {
			if c.Err == nil {
				t.Fatalf("cell %d under an unknown policy ran", c.Pattern)
			}
			continue
		}
		ran++
		k := run{s.Patterns[c.Pattern].Encode(), c.Policy, c.Cap}
		f, ok := first[k]
		if !ok {
			first[k] = c
			distinct++
			continue
		}
		if c.Result != f.Result || c.Err != f.Err {
			t.Errorf("%s at cap %d: copy %+v differs from the run %+v", c.Policy, c.Cap, c.Result, f.Result)
		}
	}
	// two and fwd: full (2), half and one (1, 1); three: full (3), half
	// (2), one (1); the repeat of two copies all three of its runs. Per
	// policy: 12 cells, 7 distinct runs.
	if ran != 24 || distinct != 14 {
		t.Fatalf("%d cells ran with %d distinct runs, want 24 and 14", ran, distinct)
	}
	if _, runs := sim.Totals(); runs != uint64(ran) {
		t.Errorf("Totals counted %d runs, want one per cell that ran: %d", runs, ran)
	}
	if got := sim.CacheHits(); got != uint64(ran-distinct) {
		t.Errorf("%d cells reused, want cells minus distinct runs: %d", got, ran-distinct)
	}
}

// TestShrinkViolationToMinimal shrinks a real Baseline IFP violation down
// and checks the canonical minimum comes out: a generated reverse chain
// (with work padding and extra WGs) must reduce to the two-WG handoff.
func TestShrinkViolationToMinimal(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking re-runs simulations")
	}
	rev := mustDecode(t, "litmus:1:c50,e0.1;c80,e1.1,s0.1;e2.1,s1.1;s2.1")
	occOne := Occupancies()[2]
	fail := ViolationFailFn("Baseline", IFP, occOne, 0)
	if !fail(rev) {
		t.Fatalf("Baseline completes the reverse chain at cap 1; nothing to shrink")
	}
	min := Shrink(rev, fail)
	if !fail(min) {
		t.Errorf("shrunk pattern no longer fails: %s", min.Encode())
	}
	if got, want := min.Encode(), "litmus:1:e0.1;s0.1"; got != want {
		t.Errorf("shrunk to %s (size %d), want the canonical minimum %s", got, Size(min), want)
	}
}

// TestRenderGoTest renders a reproducer and checks it carries the decode
// call, the policy, and the capacity — the pieces that make it runnable
// when committed.
func TestRenderGoTest(t *testing.T) {
	l := mustDecode(t, "litmus:1:e0.1;s0.1")
	src := RenderGoTest(l, "LitmusRevChainTimeout", "policy_test", "Timeout", 1, IFP)
	for _, want := range []string{
		"package policy_test",
		"func TestLitmusRevChainTimeout(t *testing.T)",
		`kernels.DecodeLitmus("litmus:1:e0.1;s0.1")`,
		`litmus.RunConfig(l, "Timeout", 1, 0)`,
		"res.Deadlocked",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("rendered test missing %q:\n%s", want, src)
		}
	}
}
