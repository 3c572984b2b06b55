package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestCompareGolden drives the check behind make golden/litmus-quick
// against a record written to a temp file: every kind of drift is
// reported by name, and an exact match reports none.
func TestCompareGolden(t *testing.T) {
	record := goldenFile{Quick: true, Experiments: []goldenEntry{
		{ID: "fig7", SimCycles: 1000, SimRuns: 10, OutputSHA: "aaaaaaaaaaaaaaaa"},
		{ID: "fig8", SimCycles: 2000, SimRuns: 20, OutputSHA: "bbbbbbbbbbbbbbbb"},
	}}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := writeJSON(path, record); err != nil {
		t.Fatal(err)
	}
	// mutate returns a deep copy of record with f applied.
	mutate := func(f func(*goldenFile)) goldenFile {
		g := goldenFile{Quick: record.Quick, Experiments: append([]goldenEntry(nil), record.Experiments...)}
		f(&g)
		return g
	}
	for _, tc := range []struct {
		name string
		got  goldenFile
		want []string
	}{
		{"exact match", mutate(func(*goldenFile) {}), nil},
		{"sim_cycles", mutate(func(g *goldenFile) { g.Experiments[0].SimCycles++ }),
			[]string{"fig7: sim_cycles 1000 -> 1001"}},
		{"sim_runs", mutate(func(g *goldenFile) { g.Experiments[1].SimRuns = 19 }),
			[]string{"fig8: sim_runs 20 -> 19"}},
		{"output_sha256", mutate(func(g *goldenFile) { g.Experiments[0].OutputSHA = "cccccccccccccccc" }),
			[]string{"fig7: rendered output changed (sha256 aaaaaaaaaaaa -> cccccccccccc)"}},
		{"quick", mutate(func(g *goldenFile) { g.Quick = false }),
			[]string{"quick mode mismatch: golden true, run false"}},
		{"missing from record", mutate(func(g *goldenFile) {
			g.Experiments = append(g.Experiments, goldenEntry{ID: "fig9", SimCycles: 1, SimRuns: 1})
		}), []string{"fig9: not in golden record"}},
		{"did not run", mutate(func(g *goldenFile) { g.Experiments = g.Experiments[:1] }),
			[]string{"fig8: in golden record but did not run"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compareGolden(path, tc.got); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("compareGolden drifts:\n  got  %q\n  want %q", got, tc.want)
			}
		})
	}
	// A missing record is itself a drift: the gate cannot pass without one.
	if drifts := compareGolden(filepath.Join(t.TempDir(), "absent.json"), record); len(drifts) != 1 {
		t.Fatalf("missing record reported %q, want one drift", drifts)
	}
}
