// Command awgbench is the simulator's benchmark. One invocation runs one
// workload — a fixed job list generated from -seed — through the
// simulator's public entry points, times repeated passes over it, checks
// every job's outcome and the cross-pass result digest, and prints each
// metric by name with its unit:
//
//	go run . -workload litmus-hunt -seed 1
//	go run . -workload litmus-hunt -seed 1 -trace 1   # per-layer metrics
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when any
// correctness check fails and 2 on bad flags. See README.md for the
// workloads, the layer map and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64 // timed passes continue until they have run this long
	minPasses int     // ... and until there are at least this many
	// setupSeconds is how long the construct-only sub-passes before each
	// timed pass run (at least one sub-pass).
	setupSeconds float64
	workers      int
	trace        bool
	traceDir     string
	tiny         bool   // shrunken workloads, for the package tests
	load         string // the run header's description of the process settings
}

// metric is one reported value. exact marks a deterministic count, which
// must repeat across runs and pool widths; note carries the spread of a
// timing or the base of a ratio.
type metric struct {
	name, unit string
	value      float64
	exact      bool
	perLayer   bool
	note       string
}

type report struct {
	correct           bool
	attempted, failed int
	digest            string
	metrics           []metric
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

// fail records a correctness failure that is not a single job's.
func (r *report) fail(log io.Writer, format string, args ...any) {
	r.correct = false
	fmt.Fprintf(log, "CHECK FAILED: "+format+"\n", args...)
}

func main() {
	o := options{minPasses: 3, setupSeconds: 0.25}
	traceFlag := 0
	flag.StringVar(&o.workload, "workload", "", "one of spin-contention, monitor-oversub, fault-churn, litmus-hunt")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: jitter seeds, random fault schedules and litmus patterns all derive from it")
	flag.Float64Var(&o.seconds, "seconds", 15, "run timed passes until they have taken this many seconds (at least 3 passes)")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds a profiled pass and a serial span pass, and reports the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/awgbench-trace", "directory a traced run writes its CPU profile and spans to")
	flag.IntVar(&o.workers, "workers", min(runtime.NumCPU(), 2), "simulation workers; GOMAXPROCS is set to match")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "awgbench: -trace must be 0 or 1, got %d\n", traceFlag)
		os.Exit(2)
	}
	if o.workers < 1 || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "awgbench: -workers must be at least 1 and -seconds not negative")
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	// One process carries the load. The pool and the Go scheduler get the
	// same width, and the GC runs at awgexp's setting: the run cache and
	// pools keep a large live heap, and the default GOGC doubles the
	// run-to-run spread on litmus-hunt.
	runtime.GOMAXPROCS(o.workers)
	gc := "GOGC=" + os.Getenv("GOGC") + " from the environment"
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
		gc = "GC percent 400"
	}
	o.load = fmt.Sprintf("1 process, workers %d, GOMAXPROCS %d (nproc %d), %s, %s %s/%s",
		o.workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), gc, runtime.Version(), runtime.GOOS, runtime.GOARCH)

	r, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "awgbench: %v\n", err)
		os.Exit(2)
	}
	line, err := r.resultLine(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "awgbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(line)
	if !r.correct {
		os.Exit(1)
	}
}

// run measures one workload and, when o.trace is set, traces it; it logs
// the header, every metric and every failed check to log.
func run(o options, log io.Writer) (*report, error) {
	w, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "awgbench: workload %s, seed %d, %d jobs per pass\n", w.name, o.seed, len(w.jobs))
	fmt.Fprintf(log, "load: %s\n", o.load)
	fmt.Fprintf(log, "inputs: %s\n", w.inputs)
	fmt.Fprintf(log, "shape: 1 untimed warm-up pass, then timed passes until %g s and at least %d passes, each after %g s of construct-only set-up sub-passes; modelled caches start empty in every job\n",
		o.seconds, o.minPasses, o.setupSeconds)

	r := &report{correct: true}
	m, err := measure(w, o, r, log)
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := traceRun(w, o, m, r, log); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "result digest: sha256:%s\n", r.digest)
	fmt.Fprintf(log, "jobs: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, mt := range r.metrics {
		fmt.Fprintf(log, "%-26s %14.6g %-8s %s\n", mt.name, mt.value, mt.unit, mt.note)
	}
	return r, nil
}

// resultLine renders the closing JSON object: the end-to-end metrics, or
// with trace the per-layer ones.
func (r *report) resultLine(trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		if m.perLayer == trace {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encoding the result line: %w", err)
	}
	return string(b), nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), leaving xs unsorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
