package experiments

import (
	"strings"
	"testing"

	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// quick is shared by the package's tests, so a grid cell simulates once
// and later tests reuse it.
var quick = NewOptions(true)

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "fig13", "fig14", "fig15", "faults", "fleet", "litmus", "overhead"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	if _, err := Get("fig14"); err != nil {
		t.Fatal(err)
	}
	// An unknown id's error enumerates what is available (so a typo on the
	// awgexp command line is self-correcting), including fleet.
	_, err := Get("fig999")
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	for _, want := range []string{`"fig999"`, "available:", "fig14", "fleet"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-experiment error %q missing %q", err, want)
		}
	}
}

func TestTable1(t *testing.T) {
	tab := Table1(quick)
	s := tab.String()
	for _, want := range []string{"Compute units", "2 GHz", "512 KB", "L1 cache"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 12 {
		t.Fatalf("Table 2 has %d rows, want 12", tab.Rows())
	}
	s := tab.String()
	// Centralized vs decentralized structure must be visible: SPM_G has one
	// sync variable plus the exit barrier; SLM_G has on the order of G.
	if !strings.Contains(s, "SPM_G") || !strings.Contains(s, "SLM_G") {
		t.Fatalf("Table 2 missing benchmarks:\n%s", s)
	}
}

func TestFig5ContextSizes(t *testing.T) {
	tab, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 14 { // 12 benchmarks + 2 apps
		t.Fatalf("Fig 5 has %d rows, want 14", tab.Rows())
	}
}

func TestFig6Signatures(t *testing.T) {
	tab, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 8 {
		t.Fatalf("Fig 6 has %d rows, want 8", tab.Rows())
	}
	s := tab.String()
	if !strings.Contains(s, "AWG") || !strings.Contains(s, "MonRS-All") {
		t.Fatalf("Fig 6 missing policies:\n%s", s)
	}
}

func TestFig9WaitEfficiency(t *testing.T) {
	tab, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 12 {
		t.Fatalf("Fig 9 has %d rows, want 12", tab.Rows())
	}
}

func TestFig13Structures(t *testing.T) {
	tab, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 12 {
		t.Fatalf("Fig 13 has %d rows, want 12", tab.Rows())
	}
}

func TestHardwareOverheadTable(t *testing.T) {
	s := HardwareOverhead().String()
	for _, want := range []string{"1024 conditions", "512 entries", "3.18 KB", "1.5 KB"} {
		if !strings.Contains(s, want) {
			t.Errorf("hardware overhead table missing %q", want)
		}
	}
}

// TestOptionsShareCells: experiments run through one NewOptions share their
// grid cells. Oversweep after Table2 reuses Table2's SPM_G and TB_LG
// Baseline cells, since its explicit 1x launch size is the default Table2
// leaves zero, and Totals still counts every cell. Fresh Options simulate
// those cells again and render the same table; a literal Options never
// reuses, even when it repeats an experiment.
func TestOptionsShareCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments")
	}
	run := func(o Options, exp func(Options) (*metrics.Table, error)) (out string, runs, reused uint64) {
		t.Helper()
		sim.ResetTotals()
		sim.ResetCache()
		tab, err := exp(o)
		if err != nil {
			t.Fatal(err)
		}
		_, runs = sim.Totals()
		return tab.String(), runs, sim.CacheHits()
	}
	shared := NewOptions(true)
	if _, runs, reused := run(shared, Table2); runs != 12 || reused != 0 {
		t.Fatalf("table2 through new Options: %d runs, %d reused; want 12, 0", runs, reused)
	}
	after, runs, reused := run(shared, Oversweep)
	if runs != 24 || reused != 2 {
		t.Errorf("oversweep after table2: %d runs, %d reused; want 24, the two 1x Baseline cells reused", runs, reused)
	}
	alone, runs, reused := run(NewOptions(true), Oversweep)
	if runs != 24 || reused != 0 {
		t.Errorf("oversweep through new Options: %d runs, %d reused; want 24, 0", runs, reused)
	}
	if after != alone {
		t.Errorf("reused cells changed the table\n--- reused\n%s\n--- simulated\n%s", after, alone)
	}
	literal := Options{Quick: true}
	run(literal, Table2)
	if _, runs, reused := run(literal, Table2); runs != 12 || reused != 0 {
		t.Errorf("table2 again through a literal Options: %d runs, %d reused; want 12, 0", runs, reused)
	}
}
