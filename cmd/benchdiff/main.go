// Command benchdiff compares the two newest perf-trajectory entries in
// BENCH_results.json (appended by `make bench`) and reports the wall-clock
// and allocator-pressure movement per experiment.
//
// Usage:
//
//	go run ./cmd/benchdiff [-json BENCH_results.json] [-threshold 10]
//
// Exit status is non-zero when total wall clock regressed by more than
// threshold percent between the two entries; experiments present only in
// the newer entry are reported but excluded from the gate, so adding an
// experiment does not read as a regression. In `make ci` the step is
// advisory (prefixed with -): trajectory entries are recorded on whatever
// machine ran `make bench` last, so a cross-machine comparison can
// legitimately exceed the threshold without a code regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type entry struct {
	ID           string  `json:"id"`
	WallSecs     float64 `json:"wall_secs"`
	SimRuns      uint64  `json:"sim_runs"`
	CacheHits    uint64  `json:"cache_hits"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
}

type report struct {
	Generated  string  `json:"generated"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Quick      bool    `json:"quick"`
	Exps       []entry `json:"experiments"`
	TotalSecs  float64 `json:"total_secs"`
	CacheHits  uint64  `json:"cache_hits"`
	// IR ops run by the WG interpreter.
	OpsInterpreted uint64 `json:"ops_interpreted"`
}

func main() {
	path := flag.String("json", "BENCH_results.json", "trajectory file to compare")
	threshold := flag.Float64("threshold", 10, "regression gate on total wall clock, percent")
	flag.Parse()

	data, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	var reports []report
	if err := json.Unmarshal(data, &reports); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *path, err)
		os.Exit(2)
	}
	if len(reports) < 2 {
		fmt.Printf("benchdiff: %s has %d entr%s; need two to compare — run `make bench` again after a change\n",
			*path, len(reports), plural(len(reports), "y", "ies"))
		return
	}
	old, cur := reports[len(reports)-2], reports[len(reports)-1]
	comparable := old.Quick == cur.Quick && old.Workers == cur.Workers && old.GOMAXPROCS == cur.GOMAXPROCS
	fmt.Printf("benchdiff: %s (%s -> %s)\n", *path, orUnstamped(old.Generated), orUnstamped(cur.Generated))
	if !comparable {
		fmt.Printf("  note: configs differ (quick=%v/%v workers=%d/%d gomaxprocs=%d/%d); deltas are indicative only\n",
			old.Quick, cur.Quick, old.Workers, cur.Workers, old.GOMAXPROCS, cur.GOMAXPROCS)
	}

	prev := map[string]entry{}
	for _, e := range old.Exps {
		prev[e.ID] = e
	}
	fmt.Printf("  %-10s %10s %10s %8s   %s\n", "experiment", "old secs", "new secs", "delta", "allocs/run old->new")
	var newOnlySecs float64
	for _, e := range cur.Exps {
		p, ok := prev[e.ID]
		if !ok {
			newOnlySecs += e.WallSecs
			fmt.Printf("  %-10s %10s %10.3f %8s   (new experiment)\n", e.ID, "-", e.WallSecs, "-")
			continue
		}
		extra := ""
		if e.CacheHits > 0 {
			extra = fmt.Sprintf("  [%d/%d runs from cache]", e.CacheHits, e.SimRuns)
		}
		fmt.Printf("  %-10s %10.3f %10.3f %+7.1f%%   %.0f -> %.0f%s\n",
			e.ID, p.WallSecs, e.WallSecs, pct(p.WallSecs, e.WallSecs), p.AllocsPerRun, e.AllocsPerRun, extra)
	}
	// Gate on like-for-like work: experiments that only exist in the new
	// entry (a PR adding one) are reported above but their wall time is
	// excluded from the regression comparison — new coverage is not a
	// slowdown of the old coverage.
	gatedSecs := cur.TotalSecs - newOnlySecs
	total := pct(old.TotalSecs, gatedSecs)
	fmt.Printf("  %-10s %10.3f %10.3f %+7.1f%%\n", "TOTAL", old.TotalSecs, cur.TotalSecs, pct(old.TotalSecs, cur.TotalSecs))
	if newOnlySecs > 0 {
		fmt.Printf("  gate excludes %.3fs of new experiment(s): %+.1f%% on comparable work\n", newOnlySecs, total)
	}
	if cur.CacheHits > 0 {
		fmt.Printf("  run cache: %d replayed runs in the new entry\n", cur.CacheHits)
	}
	if cur.OpsInterpreted > 0 || old.OpsInterpreted > 0 {
		fmt.Printf("  interpreter: %s -> %s IR ops interpreted\n",
			human(old.OpsInterpreted), human(cur.OpsInterpreted))
	}
	if total > *threshold {
		fmt.Fprintf(os.Stderr, "benchdiff: total wall clock regressed %.1f%% (> %.0f%% gate)\n", total, *threshold)
		os.Exit(1)
	}
}

// pct is the relative movement from old to new in percent; +10 means new
// is 10% slower.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// human renders a count with a k/M/G suffix.
func human(n uint64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

func orUnstamped(s string) string {
	if s == "" {
		return "unstamped"
	}
	return s
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
