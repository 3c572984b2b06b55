package experiments

// Shape tests: each paper figure's qualitative claims, asserted at quick
// scale so regressions in the simulator or the policies surface in `go
// test`. Absolute ratios are checked loosely — the claims are about
// orderings and crossovers.

import (
	"strconv"
	"strings"
	"testing"

	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// cells parses a rendered table into rows of fields.
func cells(t *testing.T, tab *metrics.Table) (header []string, rows [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("table too small:\n%s", tab.String())
	}
	header = strings.Fields(lines[1])
	for _, l := range lines[2:] {
		rows = append(rows, strings.Fields(l))
	}
	return header, rows
}

func field(t *testing.T, header []string, row []string, col string) string {
	t.Helper()
	for i, h := range header {
		if h == col {
			if i >= len(row) {
				t.Fatalf("row %v has no column %s", row, col)
			}
			return row[i]
		}
	}
	t.Fatalf("no column %q in %v", col, header)
	return ""
}

func num(t *testing.T, header []string, row []string, col string) float64 {
	t.Helper()
	s := field(t, header, row, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("column %s = %q is not numeric", col, s)
	}
	return v
}

func geoMeanRow(t *testing.T, rows [][]string) []string {
	t.Helper()
	last := rows[len(rows)-1]
	if last[0] != "GeoMean" {
		t.Fatalf("last row is %v, want GeoMean", last)
	}
	return last
}

// Figure 14's claims: AWG has the best geomean; it beats the Baseline by a
// large factor; MonNR-One collapses on the centralized tree barriers while
// AWG does not (the resume-count predictor's whole point).
func TestFig14Shape(t *testing.T) {
	tab, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	gm := geoMeanRow(t, rows)
	awg := num(t, header, gm, "AWG")
	if awg < 1.3 {
		t.Errorf("AWG geomean speedup %.2f — the headline win is gone", awg)
	}
	for _, p := range []string{"Timeout", "MonNR-All", "MonNR-One"} {
		if v := num(t, header, gm, p); v > awg+0.01 {
			t.Errorf("%s geomean %.2f beats AWG %.2f", p, v, awg)
		}
	}
	for _, row := range rows {
		switch row[0] {
		case "TB_LG", "TBEX_LG":
			one := num(t, header, row, "MonNR-One")
			awgRow := num(t, header, row, "AWG")
			if one > 0.9*awgRow {
				t.Errorf("%s: MonNR-One %.2f not clearly below AWG %.2f — "+
					"the barrier resume-one deficiency disappeared", row[0], one, awgRow)
			}
		case "FAM_G":
			if v := num(t, header, row, "AWG"); v < 2 {
				t.Errorf("FAM_G AWG speedup %.2f, want the big centralized-mutex win", v)
			}
		}
	}
}

// Figure 15's claims: Baseline deadlocks everywhere, Sleep deadlocks where
// it appears, AWG has the best (or tied-best) geomean over Timeout.
func TestFig15Shape(t *testing.T) {
	tab, err := Fig15(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	for _, row := range rows[:len(rows)-1] {
		if got := field(t, header, row, "Baseline"); got != "DEADLOCK" {
			t.Errorf("%s: Baseline = %s, want DEADLOCK", row[0], got)
		}
		sleep := field(t, header, row, "Sleep")
		if row[0] == "SPMBO_G" || row[0] == "SPMBO_L" {
			if sleep != "DEADLOCK" {
				t.Errorf("%s: Sleep = %s, want DEADLOCK", row[0], sleep)
			}
		} else if sleep != "-" {
			t.Errorf("%s: Sleep = %s, want absent", row[0], sleep)
		}
	}
	gm := geoMeanRow(t, rows)
	awg := num(t, header, gm, "AWG")
	if awg < 1.5 {
		t.Errorf("AWG geomean vs Timeout %.2f, want a clear win", awg)
	}
	if one := num(t, header, gm, "MonNR-One"); one > awg {
		t.Errorf("MonNR-One geomean %.2f above AWG %.2f", one, awg)
	}
}

// Figure 7's claims: some backoff interval beats busy waiting on the
// contended global mutexes, and over-sleeping eventually gives back the
// gains (no monotone improvement).
func TestFig7Shape(t *testing.T) {
	tab, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	for _, row := range rows {
		if row[0] != "SPM_G" && row[0] != "FAM_G" {
			continue
		}
		best := 1e9
		for _, iv := range Fig7Intervals() {
			if v := num(t, header, row, "Sleep-"+iv); v < best {
				best = v
			}
		}
		if best >= 1 {
			t.Errorf("%s: no backoff interval beats busy waiting (best %.2f)", row[0], best)
		}
	}
}

// Figure 8's claims, at quick scale: some interval is worse than busy
// waiting on every primitive class, and the penalty grows with the
// interval once past the sweet spot. (The paper's stronger claim — that
// different primitives prefer *different* intervals — needs full-scale
// contention: at 192 WGs, Timeout-1k poll storms make SPM_G prefer 10k
// while FAM_L prefers 1k; see EXPERIMENTS.md.)
func TestFig8Shape(t *testing.T) {
	tab, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	anyWorse := false
	for _, row := range rows {
		for _, iv := range Fig8Intervals() {
			if num(t, header, row, "Timeout-"+iv) > 1 {
				anyWorse = true
			}
		}
		// Past the sweet spot the penalty must grow monotonically-ish:
		// 100k is never better than 20k at this scale.
		if num(t, header, row, "Timeout-100k") < num(t, header, row, "Timeout-20k") {
			t.Errorf("%s: Timeout-100k beat Timeout-20k — over-waiting is free?", row[0])
		}
	}
	if !anyWorse {
		t.Error("no timeout interval was ever worse than busy waiting")
	}
}

// Figure 9's claims: the sporadic monitor executes far more atomics than
// MinResume on centralized primitives; the checking monitors sit between.
func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	for _, row := range rows {
		if row[0] != "FAM_G" {
			continue
		}
		rs := num(t, header, row, "MonRS-All")
		nr := num(t, header, row, "MonNR-All")
		if rs < 2 {
			t.Errorf("FAM_G: MonRS-All %.2fx MinResume — sporadic wakeups too cheap", rs)
		}
		if rs <= nr {
			t.Errorf("FAM_G: sporadic (%.2f) not above checking (%.2f)", rs, nr)
		}
		if nr < 1 {
			t.Errorf("FAM_G: MonNR-All %.2f below the MinResume oracle", nr)
		}
	}
}

// Figure 11's claims: MonNR-One spends far more of its time waiting than
// MonNR-All on a centralized tree barrier.
func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	var allWait, oneWait float64
	for _, row := range rows {
		if row[0] != "TB_LG" {
			continue
		}
		switch row[1] {
		case "MonNR-All":
			allWait = num(t, header, row, "Waiting")
		case "MonNR-One":
			oneWait = num(t, header, row, "Waiting")
		}
	}
	if oneWait <= allWait {
		t.Errorf("TB_LG: MonNR-One waiting %.3f not above MonNR-All %.3f", oneWait, allWait)
	}
}

// The ablation must show the SyncMon cache mattering: AWG-nocache pays for
// virtualizing everything through the Monitor Log.
func TestAblationShape(t *testing.T) {
	tab, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	// Every variant claims IFP, so every cell is a speedup and each
	// variant's geomean covers all four benchmarks.
	if len(rows) != len(AblationBenchmarks())+1 {
		t.Fatalf("%d rows, want %d benchmarks and the geomean", len(rows), len(AblationBenchmarks()))
	}
	for _, row := range rows {
		for _, v := range header[1:] {
			num(t, header, row, v)
		}
	}
	gm := geoMeanRow(t, rows)
	full := num(t, header, gm, "AWG")
	nocache := num(t, header, gm, "AWG-nocache")
	if nocache >= full {
		t.Errorf("AWG without its SyncMon cache (%.2f) not below full AWG (%.2f)", nocache, full)
	}
}

// Table 2's structural claims: centralized vs decentralized shapes.
func TestTable2Shape(t *testing.T) {
	tab, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	vars := map[string]float64{}
	waiters := map[string]float64{}
	for _, row := range rows {
		vars[row[0]] = num(t, header, row, "SyncVars")
		waiters[row[0]] = num(t, header, row, "MaxWaiters/Cond")
	}
	p := quick.params()
	// SPM_G: one lock plus the exit barrier.
	if vars["SPM_G"] > 3 {
		t.Errorf("SPM_G has %v sync vars, want ~2 (centralized)", vars["SPM_G"])
	}
	// SLM_G: on the order of G variables (decentralized queue slots).
	if vars["SLM_G"] < float64(p.NumWGs)/2 {
		t.Errorf("SLM_G has %v sync vars, want ~G=%d (decentralized)", vars["SLM_G"], p.NumWGs)
	}
	// SPM_G's lock condition gathers many waiters; SLM's slots have one.
	if waiters["SPM_G"] < 3 {
		t.Errorf("SPM_G max waiters %v, want many (everyone on one condition)", waiters["SPM_G"])
	}
}

// The launch-oversubscription sweep: Baseline deadlocks past capacity;
// the IFP policies complete at every size with runtime growing with G.
func TestOversweepShape(t *testing.T) {
	tab, err := Oversweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	for _, row := range rows {
		pol := row[1]
		for _, col := range []string{"2x", "4x"} {
			cell := field(t, header, row, col)
			if pol == "Baseline" {
				if cell != "DEADLOCK" {
					t.Errorf("%s/Baseline %s = %s, want DEADLOCK", row[0], col, cell)
				}
			} else if cell == "DEADLOCK" {
				t.Errorf("%s/%s %s deadlocked — IFP violated", row[0], pol, col)
			}
		}
		if pol != "Baseline" {
			if num(t, header, row, "4x") <= num(t, header, row, "1x") {
				t.Errorf("%s/%s: 4x launch not slower than 1x", row[0], pol)
			}
		}
	}
}

// The fault-injection experiment: Faults itself enforces the IFP invariant
// (it returns an error on any violation), so the shape assertions here are
// structural — Baseline deadlocks on every schedule, every IFP policy posts
// a numeric runtime in every schedule column, and the schedule set carries
// both the scripted and the seeded-random columns.
func TestFaultsShape(t *testing.T) {
	tab, err := Faults(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	for _, name := range []string{"flap", "rolling", "squeeze", "jitter", "halfdown", "rand-1", "rand-8"} {
		found := false
		for _, h := range header {
			if h == name {
				found = true
			}
		}
		if !found {
			t.Errorf("schedule column %q missing from %v", name, header)
		}
	}
	schedCols := header[2:]
	if len(schedCols) < 12 {
		t.Errorf("%d schedule columns, want >= 12 (scripted + random)", len(schedCols))
	}
	for _, row := range rows {
		pol := row[1]
		for _, col := range schedCols {
			cell := field(t, header, row, col)
			if pol == "Baseline" {
				if cell != "DEADLOCK" {
					t.Errorf("%s/Baseline under %s = %s, want DEADLOCK", row[0], col, cell)
				}
			} else if num(t, header, row, col) <= 0 {
				t.Errorf("%s/%s under %s: non-positive runtime", row[0], pol, col)
			}
		}
	}
}

// The Baseline worked example must render a full diagnosis of a proven
// deadlock, naming the blocking conditions. Through Options that ran the
// faults table it reuses the table's cell; a literal Options simulates the
// cell and renders the same text.
func TestFaultsWorkedExample(t *testing.T) {
	if _, err := Faults(quick); err != nil {
		t.Fatal(err)
	}
	sim.ResetCache()
	ex, err := FaultsWorkedExample(quick)
	if err != nil {
		t.Fatal(err)
	}
	if n := sim.CacheHits(); n != 1 {
		t.Errorf("worked example after the faults table reused %d runs, want its cell", n)
	}
	for _, want := range []string{"deadlock diagnosis:", "proven-deadlock", "blocked on [0x", "scheduler:"} {
		if !strings.Contains(ex, want) {
			t.Errorf("worked example missing %q:\n%s", want, ex)
		}
	}
	sim.ResetCache()
	fresh, err := FaultsWorkedExample(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := sim.CacheHits(); n != 0 || fresh != ex {
		t.Errorf("worked example through a literal Options: %d runs reused, text %s; want 0 and\n%s", n, fresh, ex)
	}
}

// The priority-injection experiment: the high-priority kernel always
// finishes, and under AWG the low-priority mutex kernel barely notices
// (its waiters were parked anyway).
func TestPriorityShape(t *testing.T) {
	tab, err := Priority(quick)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := cells(t, tab)
	for _, row := range rows {
		if lat := num(t, header, row, "HPlatency"); lat <= 0 {
			t.Errorf("%s/%s: high-priority kernel never finished", row[0], row[1])
		}
	}
}
