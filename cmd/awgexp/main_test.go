package main

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesRecord compares the tables EXPERIMENTS.md
// embeds with the same tables in the full-scale record, cell by cell.
// Cells match by row label and column header, because the doc leaves out
// the constant Baseline or Timeout column.
func TestExperimentsDocMatchesRecord(t *testing.T) {
	doc, record := readFile(t, "../../EXPERIMENTS.md"), readFile(t, "../../awgexp_full.txt")
	for _, tc := range []struct{ heading, title string }{
		{"### Figure 14", "== Figure 14:"},
		{"### Figure 15", "== Figure 15:"},
		{"### Ablation", "== Ablation:"},
	} {
		rec := tableAfter(t, record, tc.title)
		cells := map[[2]string]string{}
		for _, row := range rec[1:] {
			for j, c := range row {
				cells[[2]string{row[0], rec[0][j]}] = c
			}
		}
		want := tableAfter(t, doc, tc.heading)
		for _, row := range want[1:] {
			for j, c := range row {
				if got, ok := cells[[2]string{row[0], want[0][j]}]; !ok || got != c {
					t.Errorf("%s: row %s, column %s: EXPERIMENTS.md has %q, awgexp_full.txt %q",
						tc.heading, row[0], want[0][j], c, got)
				}
			}
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tableAfter returns the whitespace-split lines of the first table after
// the first line starting with prefix: from its "Benchmark" header line
// to the next blank line or code fence. Each row has one cell per column.
func tableAfter(t *testing.T, text, prefix string) [][]string {
	t.Helper()
	i := strings.Index(text, prefix)
	if i < 0 {
		t.Fatalf("no line starting with %q", prefix)
	}
	lines := strings.Split(text[i:], "\n")
	for len(lines) > 0 && !strings.HasPrefix(lines[0], "Benchmark") {
		lines = lines[1:]
	}
	var rows [][]string
	for _, line := range lines {
		if line == "" || line == "```" {
			break
		}
		rows = append(rows, strings.Fields(line))
	}
	if len(rows) < 2 {
		t.Fatalf("%q: no table rows", prefix)
	}
	for _, row := range rows {
		if len(row) != len(rows[0]) {
			t.Fatalf("%q: row %q has %d cells for %d columns", prefix, row, len(row), len(rows[0]))
		}
	}
	return rows
}
