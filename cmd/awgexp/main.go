// Command awgexp regenerates the paper's tables and figures from fresh
// simulations and prints each as an aligned text table.
//
// Usage:
//
//	awgexp                       # everything, full scale (tens of seconds)
//	awgexp -quick                # everything, reduced scale (seconds)
//	awgexp -exp fig14            # one experiment
//	awgexp -workers 4            # cap the simulation worker pool
//	awgexp -cpuprofile cpu.out   # profile the suite (see README, Profiling)
//	awgexp -list
//	awgexp -quick > awgexp_quick.txt   # regenerate a golden record
//
// Standard output is the golden record: each experiment's tables and
// worked example, then a footer with the simulated runs and cycles its
// tables cost. `make golden` and `make golden-full` diff a fresh run
// against awgexp_quick.txt and awgexp_full.txt. Wall time and reuse go
// to standard error.
//
// A grid cell recurring across experiments simulates once and is reused
// by the later ones; outputs and the footers are identical either way.
// Performance is measured by cmd/awgbench, not here.
//
// A failing experiment's error is reported and its section left out, the
// remaining experiments still run, and awgexp exits non-zero at the end
// if anything failed.
package main

import (
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

func main() {
	var (
		exp        = flag.String("exp", "", "single experiment id (table1, table2, fig5..fig15, ...); empty = all")
		quick      = flag.Bool("quick", false, "reduced launches: shapes only, runs in seconds")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		workers    = flag.Int("workers", 0, "simulation worker pool size; 0 = GOMAXPROCS")
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

	var failures []string
	sep := ""
	for _, e := range run {
		start := time.Now() //lint:allow simdeterminism wall time for the stderr progress line only; never in the record
		hits := sim.CacheHits()
		text, err := e.Section(opts)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", e.ID, err))
			fmt.Fprintf(os.Stderr, "awgexp: %s: %v\n", e.ID, err)
			continue
		}
		fmt.Print(sep, text)
		sep = "\n"
		//lint:allow simdeterminism wall time for the stderr progress line only; never in the record
		fmt.Fprintf(os.Stderr, "awgexp: %s regenerated in %.1fs; %d runs reused\n",
			e.ID, time.Since(start).Seconds(), sim.CacheHits()-hits)
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
}
