package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	base := Result{Cycles: 1200}
	fast := Result{Cycles: 100}
	if got := fast.Speedup(base); got != 12 {
		t.Fatalf("Speedup = %v, want 12", got)
	}
	if got := base.NormalizedRuntime(base); got != 1 {
		t.Fatalf("self-normalized runtime = %v, want 1", got)
	}
}

func TestSpeedupUndefinedOnDeadlock(t *testing.T) {
	base := Result{Cycles: 1000}
	dead := Result{Cycles: 500, Deadlocked: true}
	if got := dead.Speedup(base); got != 0 {
		t.Fatalf("deadlocked speedup = %v, want 0", got)
	}
	if got := base.Speedup(dead); got != 0 {
		t.Fatalf("speedup vs deadlocked base = %v, want 0", got)
	}
	if got := (Result{}).Speedup(base); got != 0 {
		t.Fatalf("zero-cycle speedup = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", got)
	}
	// Zeros (deadlocked bars) are skipped, not counted as zero.
	if got := GeoMean([]float64{4, 0, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean with zero = %v, want 4", got)
	}
}

func TestGeoMeanProperty(t *testing.T) {
	// Geomean of positive values lies between min and max.
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-6 && x < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "Benchmark", "Speedup")
	tb.AddRow("SPM_G", 12.345)
	tb.AddRow("FAM_G", 0.0)
	s := tb.String()
	if !strings.Contains(s, "== Fig X ==") {
		t.Fatalf("missing title in %q", s)
	}
	if !strings.Contains(s, "12.3") {
		t.Fatalf("missing 3-sig-fig float in %q", s)
	}
	if !strings.Contains(s, "-") {
		t.Fatalf("zero not rendered as dash in %q", s)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", tb.Rows())
	}
}

func TestTableSort(t *testing.T) {
	tb := NewTable("", "name")
	tb.AddRow("b")
	tb.AddRow("a")
	tb.SortRowsBy(0)
	s := tb.String()
	if strings.Index(s, "a") > strings.Index(s, "b") {
		t.Fatalf("rows not sorted: %q", s)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "col", "x")
	tb.AddRow("longvalue", 1)
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	// The second column must start at the same offset in both lines.
	if strings.Index(lines[0], "x") != strings.Index(lines[1], "1") {
		t.Fatalf("columns misaligned:\n%s", tb.String())
	}
}

// TestResultJSONKeyOrder pins the top-level key order of an encoded
// Result: awgsim -json and awgbench's result digest depend on it, and the
// embedded Counters decides its middle.
func TestResultJSONKeyOrder(t *testing.T) {
	b, err := json.Marshal(Result{Diagnosis: &Diagnosis{}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Benchmark", "Policy", "Cycles", "Deadlocked", "Completed", "Diagnosis",
		"Atomics", "BankWait", "ContextBytes", "Breakdown", "MaxWait",
		"SwitchesOut", "SwitchesIn", "Stalls", "Resumes", "WastedResumes", "Timeouts",
		"MaxConditions", "MaxWaitingWGs", "MaxMonitoredVar", "MaxLogEntries", "LogSpills", "LogRejects",
		"PredictAll", "PredictOne", "BloomResets",
		"SyncVars", "VarStats", "ContextKB",
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	var got []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("encoded keys\n%v\nwant\n%v", got, want)
	}
}
