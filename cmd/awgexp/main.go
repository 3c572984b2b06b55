// Command awgexp regenerates the paper's tables and figures from fresh
// simulations and prints each as an aligned text table.
//
// Usage:
//
//	awgexp                       # everything, full scale (minutes)
//	awgexp -quick                # everything, reduced scale (seconds)
//	awgexp -exp fig14            # one experiment
//	awgexp -workers 4            # cap the simulation worker pool
//	awgexp -golden GOLDEN.json   # fail if outputs drift from the golden record
//	awgexp -golden GOLDEN.json -update-golden   # rewrite the golden record
//	awgexp -cpuprofile cpu.out   # profile the suite (see README, Profiling)
//	awgexp -list
//
// A grid cell recurring across experiments simulates once and is reused
// by the later ones; outputs and the golden run counts are identical
// either way. Performance is measured by cmd/awgbench, not here.
//
// A failing experiment no longer aborts the suite: its error is reported,
// the remaining experiments still run, and awgexp exits non-zero at the
// end if anything failed.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"awgsim/internal/experiments"
	"awgsim/internal/sim"
)

// goldenEntry pins one experiment's deterministic outputs: the simulated
// cycle/run totals and a hash of the rendered tables (wall time excluded).
// Any engine or model change that alters simulated behavior shows up here.
type goldenEntry struct {
	ID        string `json:"id"`
	SimCycles uint64 `json:"sim_cycles"`
	SimRuns   uint64 `json:"sim_runs"`
	OutputSHA string `json:"output_sha256"`
}

type goldenFile struct {
	Quick       bool          `json:"quick"`
	Experiments []goldenEntry `json:"experiments"`
}

// workedExamples render the text an experiment prints after its table.
// It is part of the hashed output, but its simulations are not counted in
// the experiment's sim_cycles/sim_runs.
var workedExamples = map[string]func(experiments.Options) (string, error){
	"fig6":   experiments.Fig6Timelines,
	"faults": experiments.FaultsWorkedExample,
	"fleet":  experiments.FleetWorkedExample,
	"litmus": experiments.LitmusWorkedExamples,
}

func main() {
	var (
		exp        = flag.String("exp", "", "single experiment id (table1, table2, fig5..fig15); empty = all")
		quick      = flag.Bool("quick", false, "reduced launches: shapes only, runs in seconds")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		workers    = flag.Int("workers", 0, "simulation worker pool size; 0 = GOMAXPROCS")
		golden     = flag.String("golden", "", "golden-record JSON: compare deterministic outputs against it and exit non-zero on drift")
		updGolden  = flag.Bool("update-golden", false, "rewrite the -golden file from this run instead of comparing")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memprofile = flag.String("memprofile", "", "write a heap allocation profile to this file at exit")
	)
	flag.Parse()
	// awgexp is a short-lived batch process whose live heap is dominated by
	// in-flight simulation events (saturated runs queue 100k+ pooled tasks);
	// trade heap headroom for fewer GC mark cycles over that backlog. GOGC
	// in the environment still wins if set.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *workers > 0 {
		// The pool sizes itself from GOMAXPROCS; narrowing it also keeps
		// the worker goroutines' scheduling pressure down.
		runtime.GOMAXPROCS(*workers)
	}

	opts := experiments.NewOptions(*quick)
	run := experiments.All()
	if *exp != "" {
		e, err := experiments.Get(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
		run = []experiments.Experiment{e}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
	}

	record := goldenFile{Quick: *quick}
	var failures []string
	for _, e := range run {
		start := time.Now() //lint:allow simdeterminism wall time for the progress line only; never in golden output
		cyc0, runs0 := sim.Totals()
		hits0 := sim.CacheHits()
		tab, err := e.Run(opts)
		secs := time.Since(start).Seconds() //lint:allow simdeterminism wall time for the progress line only; never in golden output
		cyc1, runs1 := sim.Totals()
		hits := sim.CacheHits() - hits0
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", e.ID, err))
			fmt.Fprintf(os.Stderr, "awgexp: %s: %v\n", e.ID, err)
			continue
		}
		out := tab.String() + "\n"
		if ex := workedExamples[e.ID]; ex != nil {
			if text, exErr := ex(opts); exErr == nil {
				out += text + "\n"
			}
		}
		fmt.Print(out)
		if hits > 0 {
			fmt.Printf("[%s regenerated in %.1fs; %d/%d runs reused]\n\n",
				e.ID, secs, hits, runs1-runs0)
		} else {
			fmt.Printf("[%s regenerated in %.1fs]\n\n", e.ID, secs)
		}
		record.Experiments = append(record.Experiments, goldenEntry{
			ID:        e.ID,
			SimCycles: cyc1 - cyc0,
			SimRuns:   runs1 - runs0,
			OutputSHA: fmt.Sprintf("%x", sha256.Sum256([]byte(out))),
		})
	}
	if *exp == "" && len(failures) == 0 {
		fmt.Println(experiments.HardwareOverhead().String())
	}
	if hits := sim.CacheHits(); hits > 0 {
		_, runs := sim.Totals()
		fmt.Fprintf(os.Stderr, "awgexp: reused %d of %d runs\n", hits, runs)
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "awgexp: CPU profile written to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "awgexp: heap profile written to %s\n", *memprofile)
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "awgexp: %d experiment(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	if *golden != "" {
		if *updGolden {
			if err := writeJSON(*golden, record); err != nil {
				fmt.Fprintln(os.Stderr, "awgexp:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "awgexp: golden record written to %s\n", *golden)
		} else if drifts := compareGolden(*golden, record); len(drifts) > 0 {
			fmt.Fprintf(os.Stderr, "awgexp: outputs drifted from golden record %s:\n", *golden)
			for _, d := range drifts {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			fmt.Fprintln(os.Stderr, "awgexp: if the change is intentional, regenerate with -update-golden")
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "awgexp: outputs match golden record %s\n", *golden)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareGolden diffs this run's deterministic outputs against the golden
// record, returning human-readable drift descriptions (empty = match).
func compareGolden(path string, got goldenFile) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var drifts []string
	if want.Quick != got.Quick {
		drifts = append(drifts, fmt.Sprintf("quick mode mismatch: golden %v, run %v", want.Quick, got.Quick))
	}
	wantByID := make(map[string]goldenEntry, len(want.Experiments))
	for _, e := range want.Experiments {
		wantByID[e.ID] = e
	}
	seen := make(map[string]bool, len(got.Experiments))
	for _, g := range got.Experiments {
		seen[g.ID] = true
		w, ok := wantByID[g.ID]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("%s: not in golden record", g.ID))
			continue
		}
		if w.SimCycles != g.SimCycles {
			drifts = append(drifts, fmt.Sprintf("%s: sim_cycles %d -> %d", g.ID, w.SimCycles, g.SimCycles))
		}
		if w.SimRuns != g.SimRuns {
			drifts = append(drifts, fmt.Sprintf("%s: sim_runs %d -> %d", g.ID, w.SimRuns, g.SimRuns))
		}
		if w.OutputSHA != g.OutputSHA {
			drifts = append(drifts, fmt.Sprintf("%s: rendered output changed (sha256 %.12s -> %.12s)", g.ID, w.OutputSHA, g.OutputSHA))
		}
	}
	for _, w := range want.Experiments {
		if !seen[w.ID] {
			drifts = append(drifts, fmt.Sprintf("%s: in golden record but did not run", w.ID))
		}
	}
	return drifts
}
