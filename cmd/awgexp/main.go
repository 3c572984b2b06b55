// Command awgexp regenerates the paper's tables and figures from fresh
// simulations and prints each as an aligned text table.
//
// Usage:
//
//	awgexp                       # everything, full scale (minutes)
//	awgexp -quick                # everything, reduced scale (seconds)
//	awgexp -exp fig14            # one experiment
//	awgexp -json out.json        # append a bench trajectory entry (wall time, cycles)
//	awgexp -workers 4            # cap the simulation worker pool
//	awgexp -golden GOLDEN.json   # fail if outputs drift from the golden record
//	awgexp -golden GOLDEN.json -update-golden   # rewrite the golden record
//	awgexp -cpuprofile cpu.out   # profile the suite (see README, Profiling)
//	awgexp -nodedupe             # simulate every run, even repeated configs
//	awgexp -no-fork              # simulate every sweep member from cycle zero
//	awgexp -snapshot-every 50000 # time-travel traces for diagnosed deadlocks
//	awgexp -golden-out out.json  # also write this run's golden record
//	awgexp -list
//
// Identical declarative configs recurring across experiments simulate
// once and replay from the run cache (outputs are bit-identical either
// way); -nodedupe opts out.
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
	"awgsim/internal/gpu"
	"awgsim/internal/sim"
)

// benchEntry is one experiment's row in the -json trajectory.
type benchEntry struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	WallSecs  float64 `json:"wall_secs"`
	SimCycles uint64  `json:"sim_cycles"` // simulated cycles across the experiment's runs
	SimRuns   uint64  `json:"sim_runs"`
	CacheHits uint64  `json:"cache_hits"` // runs replayed from the dedupe cache (counted in sim_runs)
	// Fork-planner activity (see internal/sim/forkplan.go): members
	// completed from a shared-prefix snapshot, the prefix cycles they did
	// not re-simulate (counted in sim_cycles — the ledger matches the cold
	// path), and the snapshot bytes captured.
	Forks             uint64 `json:"forks"`
	PrefixCyclesSaved uint64 `json:"prefix_cycles_saved"`
	SnapshotBytes     uint64 `json:"snapshot_bytes"`
	// Host allocator pressure per accounted run (runtime.ReadMemStats
	// deltas across the experiment): the hot-state trajectory metric.
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
	Error        string  `json:"error,omitempty"`
}

// benchReport is one -json trajectory entry: a perf snapshot of the
// experiment suite, comparable across commits when quick/workers match.
// The trajectory file holds an array of these, one appended per run.
type benchReport struct {
	Generated   string       `json:"generated"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Workers     int          `json:"workers"` // 0 = GOMAXPROCS
	Quick       bool         `json:"quick"`
	Experiments []benchEntry `json:"experiments"`
	TotalSecs   float64      `json:"total_secs"`
	TotalCycles uint64       `json:"total_cycles"`
	TotalRuns   uint64       `json:"total_runs"`
	CacheHits   uint64       `json:"cache_hits"`
	// Suite-wide fork-planner totals (see benchEntry).
	Forks             uint64 `json:"forks"`
	PrefixCyclesSaved uint64 `json:"prefix_cycles_saved"`
	SnapshotBytes     uint64 `json:"snapshot_bytes"`
	// IR ops the WG interpreter executed (gpu.ExecStats delta).
	OpsInterpreted uint64 `json:"ops_interpreted"`
}

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

func main() {
	var (
		exp        = flag.String("exp", "", "single experiment id (table1, table2, fig5..fig15); empty = all")
		quick      = flag.Bool("quick", false, "reduced launches: shapes only, runs in seconds")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath   = flag.String("json", "", "append a bench-trajectory entry (per-experiment wall time and simulated cycles) to this JSON file")
		workers    = flag.Int("workers", 0, "simulation worker pool size; 0 = GOMAXPROCS")
		golden     = flag.String("golden", "", "golden-record JSON: compare deterministic outputs against it and exit non-zero on drift")
		updGolden  = flag.Bool("update-golden", false, "rewrite the -golden file from this run instead of comparing")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memprofile = flag.String("memprofile", "", "write a heap allocation profile to this file at exit")
		nodedupe   = flag.Bool("nodedupe", false, "disable run deduplication: simulate every job even when an identical Config already ran this invocation")
		nofork     = flag.Bool("no-fork", false, "disable prefix-forked sweeps: simulate every fault-sweep member from cycle zero instead of forking a shared-prefix snapshot")
		snapEvery  = flag.Uint64("snapshot-every", 0, "keep a ring of machine snapshots every N cycles; a diagnosed deadlock then attaches a time-travel trace replayed from the last pre-stall snapshot (0 = off; implies unforked runs)")
		goldenOut  = flag.String("golden-out", "", "also write this run's golden record (deterministic outputs) to this file; CI diffs forked vs unforked records byte-for-byte")
	)
	flag.Parse()
	if *nodedupe {
		sim.SetDedupe(false)
	}
	if *nofork {
		sim.SetForking(false)
	}
	if *snapEvery > 0 {
		sim.SetSnapshotEvery(*snapEvery)
	}
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

	opts := experiments.Options{Quick: *quick}
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

	report := benchReport{
		//lint:allow simdeterminism bench-report timestamp; never enters simulated state or golden output
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Quick:      *quick,
	}
	record := goldenFile{Quick: *quick}
	var failures []string
	suiteStart := time.Now() //lint:allow simdeterminism wall time for the bench trajectory only
	ops0, _ := gpu.ExecStats()
	var ms0, ms1 runtime.MemStats
	for _, e := range run {
		start := time.Now() //lint:allow simdeterminism wall time for the bench trajectory only
		cyc0, runs0 := sim.Totals()
		hits0 := sim.CacheHits()
		forks0, saved0, snapBytes0 := sim.ForkStats()
		runtime.ReadMemStats(&ms0)
		tab, err := e.Run(opts)
		runtime.ReadMemStats(&ms1)
		cyc1, runs1 := sim.Totals()
		entry := benchEntry{
			ID:    e.ID,
			Title: e.Title,
			//lint:allow simdeterminism wall time for the bench trajectory only
			WallSecs:  time.Since(start).Seconds(),
			SimCycles: cyc1 - cyc0,
			SimRuns:   runs1 - runs0,
			CacheHits: sim.CacheHits() - hits0,
		}
		forks1, saved1, snapBytes1 := sim.ForkStats()
		entry.Forks = forks1 - forks0
		entry.PrefixCyclesSaved = saved1 - saved0
		entry.SnapshotBytes = snapBytes1 - snapBytes0
		if entry.SimRuns > 0 {
			entry.AllocsPerRun = float64(ms1.Mallocs-ms0.Mallocs) / float64(entry.SimRuns)
			entry.BytesPerRun = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(entry.SimRuns)
		}
		if err != nil {
			entry.Error = err.Error()
			failures = append(failures, fmt.Sprintf("%s: %v", e.ID, err))
			fmt.Fprintf(os.Stderr, "awgexp: %s: %v\n", e.ID, err)
		} else {
			out := tab.String() + "\n"
			if e.ID == "fig6" {
				if tl, tlErr := experiments.Fig6Timelines(opts); tlErr == nil {
					out += tl + "\n"
				}
			}
			if e.ID == "faults" {
				if ex, exErr := experiments.FaultsWorkedExample(opts); exErr == nil {
					out += ex + "\n"
				}
			}
			if e.ID == "fleet" {
				if ex, exErr := experiments.FleetWorkedExample(opts); exErr == nil {
					out += ex + "\n"
				}
			}
			if e.ID == "litmus" {
				if ex, exErr := experiments.LitmusWorkedExamples(opts); exErr == nil {
					out += ex + "\n"
				}
			}
			fmt.Print(out)
			if entry.CacheHits > 0 {
				fmt.Printf("[%s regenerated in %.1fs; %d/%d runs replayed from cache]\n\n",
					e.ID, entry.WallSecs, entry.CacheHits, entry.SimRuns)
			} else {
				fmt.Printf("[%s regenerated in %.1fs]\n\n", e.ID, entry.WallSecs)
			}
			record.Experiments = append(record.Experiments, goldenEntry{
				ID:        e.ID,
				SimCycles: entry.SimCycles,
				SimRuns:   entry.SimRuns,
				OutputSHA: fmt.Sprintf("%x", sha256.Sum256([]byte(out))),
			})
		}
		report.Experiments = append(report.Experiments, entry)
	}
	if *exp == "" && len(failures) == 0 {
		fmt.Println(experiments.HardwareOverhead().String())
	}
	report.TotalSecs = time.Since(suiteStart).Seconds() //lint:allow simdeterminism wall time for the bench trajectory only
	report.TotalCycles, report.TotalRuns = sim.Totals()
	report.CacheHits = sim.CacheHits()
	report.Forks, report.PrefixCyclesSaved, report.SnapshotBytes = sim.ForkStats()
	ops1, _ := gpu.ExecStats()
	report.OpsInterpreted = ops1 - ops0
	if report.CacheHits > 0 {
		fmt.Fprintf(os.Stderr, "awgexp: run cache replayed %d of %d runs\n",
			report.CacheHits, report.TotalRuns)
	}
	if report.Forks > 0 {
		fmt.Fprintf(os.Stderr, "awgexp: fork planner completed %d runs from shared prefixes, saving %d prefix cycles\n",
			report.Forks, report.PrefixCyclesSaved)
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

	if *jsonPath != "" {
		if err := appendReport(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "awgexp: bench trajectory entry appended to %s\n", *jsonPath)
	}
	if *goldenOut != "" {
		if err := writeJSON(*goldenOut, record); err != nil {
			fmt.Fprintln(os.Stderr, "awgexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "awgexp: golden record written to %s\n", *goldenOut)
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

// appendReport appends r to the trajectory array at path, converting a
// legacy single-object file into an array on first append.
func appendReport(path string, r benchReport) error {
	var traj []benchReport
	if data, err := os.ReadFile(path); err == nil {
		if jsonErr := json.Unmarshal(data, &traj); jsonErr != nil {
			var single benchReport
			if jsonErr2 := json.Unmarshal(data, &single); jsonErr2 != nil {
				return fmt.Errorf("%s is neither a trajectory array nor a report: %v", path, jsonErr)
			}
			traj = []benchReport{single}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	traj = append(traj, r)
	return writeJSON(path, traj)
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
