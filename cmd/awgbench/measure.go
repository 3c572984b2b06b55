package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// passStats is what one timed pass measured.
type passStats struct {
	wall, cpu    float64 // seconds
	allocsPerRun float64
	liveHeapMB   float64
	allocMB      float64
	gcCycles     float64
	gcCPUms      float64

	runs, cacheHits, forks, prefixSaved, snapBytes uint64
	expected                                       int
}

// measured holds the timed passes, for the traced run's ratios.
type measured struct {
	passes    []passStats
	wall, cpu float64 // medians
}

// resetSim gives the next pass a cold run cache and zeroed counters, as a
// fresh awgexp invocation has.
func resetSim() {
	sim.ResetCache()
	sim.ResetTotals()
	sim.ResetForkStats()
}

// measure runs the warm-up pass and the timed passes and adds the
// end-to-end metrics to r.
func measure(w *workload, o options, r *report, log io.Writer) (*measured, error) {
	resetSim()
	r.checkPass("warm-up", w.run(o.workers), log)

	m := &measured{}
	var timed float64
	var setups []float64
	for len(m.passes) < o.minPasses || timed < o.seconds {
		// Set-up takes milliseconds on the long-run workloads, so each timed
		// pass is preceded by as many construct-only sub-passes as fill
		// o.setupSeconds, and setup_s is their median.
		for spent := 0.0; spent == 0 || spent < o.setupSeconds; {
			s, err := setupPass(w)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
			spent += s
		}
		ps, out, err := timedPass(w, o.workers)
		if err != nil {
			return nil, err
		}
		r.checkPass(fmt.Sprintf("timed pass %d", len(m.passes)+1), out, log)
		m.passes = append(m.passes, ps)
		timed += ps.wall
	}
	col := func(f func(passStats) float64) []float64 {
		xs := make([]float64, len(m.passes))
		for i, p := range m.passes {
			xs[i] = f(p)
		}
		return xs
	}
	walls, cpus := col(func(p passStats) float64 { return p.wall }), col(func(p passStats) float64 { return p.cpu })
	m.wall, m.cpu = median(walls), median(cpus)
	for _, e := range []struct {
		name, unit string
		xs         []float64
	}{
		{"wall_s", "s", walls},
		{"cpu_s", "s", cpus},
		{"setup_s", "s", setups},
		{"allocs_per_run", "count", col(func(p passStats) float64 { return p.allocsPerRun })},
		{"live_heap_mb", "MB", col(func(p passStats) float64 { return p.liveHeapMB })},
	} {
		r.add(metric{name: e.name, unit: e.unit, value: median(e.xs), note: spread(e.xs)})
	}
	return m, nil
}

// checkPass applies the per-pass correctness checks: every job met its
// oracle, and the result digest matches every earlier pass.
func (r *report) checkPass(name string, out passOut, log io.Writer) {
	r.attempted += len(out.results)
	r.failed += out.failed
	if out.failed > 0 {
		r.fail(log, "%s: %d of %d jobs failed; first: %v", name, out.failed, len(out.results), out.firstErr)
	}
	d, err := digest(out.results)
	switch {
	case err != nil:
		r.fail(log, "%s: %v", name, err)
	case r.digest == "":
		r.digest = d
	case d != r.digest:
		r.fail(log, "%s: result digest sha256:%s differs from the first pass's sha256:%s", name, d, r.digest)
	}
}

// setupPass builds and releases a session for every job without running
// any: the construction cost a pass pays before its first event.
func setupPass(w *workload) (float64, error) {
	t0 := time.Now()
	for _, cfg := range w.jobs {
		s, err := sim.NewSession(cfg)
		if err != nil {
			return 0, fmt.Errorf("set-up pass: %w", err)
		}
		s.Release()
	}
	return time.Since(t0).Seconds(), nil
}

func timedPass(w *workload, workers int) (passStats, passOut, error) {
	resetSim()
	runtime.GC()
	before, err := takeSample()
	if err != nil {
		return passStats{}, passOut{}, err
	}
	t0 := time.Now()
	out := w.run(workers)
	wall := time.Since(t0).Seconds()
	after, err := takeSample()
	if err != nil {
		return passStats{}, passOut{}, err
	}
	ps := passStats{
		wall:     wall,
		cpu:      after.cpu - before.cpu,
		allocMB:  float64(after.allocBytes-before.allocBytes) / (1 << 20),
		gcCycles: float64(after.gcCycles - before.gcCycles),
		gcCPUms:  (after.gcCPU - before.gcCPU) * 1e3,
		expected: out.expected,
	}
	_, ps.runs = sim.Totals()
	ps.cacheHits = sim.CacheHits()
	ps.forks, ps.prefixSaved, ps.snapBytes = sim.ForkStats()
	if ps.runs > 0 {
		ps.allocsPerRun = float64(after.allocs-before.allocs) / float64(ps.runs)
	}
	// The live heap is read before the next pass resets the run cache, so
	// it covers the cache and the package pools.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	return ps, out, nil
}

// sample is the process counters a pass is measured between.
type sample struct {
	cpu                          float64 // user+system seconds
	allocs, allocBytes, gcCycles uint64
	gcCPU                        float64 // seconds
}

var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func takeSample() (sample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return sample{}, fmt.Errorf("getrusage: %w", err)
	}
	ms := make([]rtmetrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	rtmetrics.Read(ms)
	return sample{
		cpu:        tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocs:     ms[0].Value.Uint64(),
		allocBytes: ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
		gcCPU:      ms[3].Value.Float64(),
	}, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB reports the process's peak resident set.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// digest hashes the JSON of every job's result in job order. Equal
// digests mean the passes simulated identically, so a change that moves
// only the timings leaves it unchanged.
func digest(results []metrics.Result) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return "", fmt.Errorf("digest of job %d: %w", i, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spread renders a timing's sample count and range.
func spread(xs []float64) string {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return fmt.Sprintf("median of n=%d, min %.6g, max %.6g", len(xs), lo, hi)
}
