package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"awgsim/internal/gpu"
	"awgsim/internal/litmus"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/policy"
	"awgsim/internal/sim"
)

// profileHz is the traced pass's sampling rate: at the default 100 Hz a
// 3 s pass on two cores gives too few samples to resolve the small layers.
const profileHz = 500

// traceRun makes the two traced passes — a CPU-profiled pass over the
// pooled path and a serial span pass through the session decomposition —
// writes the profile and the spans under o.traceDir, and adds the
// per-layer metrics to r.
func traceRun(w *workload, o options, m *measured, r *report, log io.Writer) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	base := filepath.Join(o.traceDir, w.name)

	out, profWall, cpuNS, samples, err := profilePass(w, o.workers, base+".cpu.pprof")
	if err != nil {
		return err
	}
	r.checkPass("profiled pass", out, log)

	resetSim()
	sp, err := spanPass(w)
	if err != nil {
		return err
	}
	r.checkPass("span pass", sp.out, log)
	if err := writeSpans(base+".spans.json", sp.spans); err != nil {
		return err
	}
	fmt.Fprintf(log, "trace: wrote %s.cpu.pprof and %s.spans.json\n", base, base)

	last := m.passes[len(m.passes)-1]
	gcCPU, gcCycles, allocMB := make([]float64, len(m.passes)), make([]float64, len(m.passes)), make([]float64, len(m.passes))
	for i, p := range m.passes {
		gcCPU[i], gcCycles[i], allocMB[i] = p.gcCPUms, p.gcCycles, p.allocMB
	}
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}

	c := sp.counts
	ms := func(name string) float64 { return float64(sp.total[name]) / 1e6 }
	l1, l2 := c.mem.L1Hits+c.mem.L1Miss, c.mem.L2Hits+c.mem.L2Miss
	exact := func(name, unit string, v float64) metric {
		return metric{name: name, unit: unit, value: v, exact: true}
	}
	timing := func(name string, v float64) metric { return metric{name: name, unit: "ms", value: v} }
	ratio := func(name string, num, den float64, base string) metric {
		v := 0.0
		if den != 0 {
			v = num / den
		}
		return metric{name: name, unit: "fraction", value: v, note: "base: " + base}
	}
	cpu := func(layer string) metric {
		return metric{name: layer + ".cpu_ms", unit: "ms", value: float64(cpuNS[layer]) / 1e6,
			note: fmt.Sprintf("%.1f%% of profiled CPU", 100*frac(cpuNS[layer], cpuNS))}
	}
	nsPerEvent := metric{name: "event.ns_per_event", unit: "ns", note: fmt.Sprintf("base: gpu.run_ms %.6g over event.events %d", ms("gpu.RunTo"), c.events)}
	if c.events > 0 {
		nsPerEvent.value = float64(sp.total["gpu.RunTo"]) / float64(c.events)
	}

	ml := []metric{
		exact("event.events", "count", float64(c.events)),
		nsPerEvent,
		cpu("event"),

		timing("gpu.run_ms", ms("gpu.RunTo")),
		timing("gpu.prepare_ms", ms("gpu.Prepare")),
		exact("gpu.sim_cycles", "cycles", float64(c.cycles)),
		exact("gpu.ir_ops", "count", float64(c.irOps)),
		exact("gpu.switches_out", "count", float64(c.res.SwitchesOut)),
		exact("gpu.stalls", "count", float64(c.res.Stalls)),
		exact("gpu.deadlocks", "count", float64(c.deadlocks)),
		cpu("gpu"),

		exact("mem.atomics", "count", float64(c.mem.Atomics)),
		exact("mem.local_atomics", "count", float64(c.mem.LocalAtomics)),
		exact("mem.loads", "count", float64(c.mem.Loads)),
		exact("mem.stores", "count", float64(c.mem.Stores)),
		ratio("mem.l1_hit_frac", float64(c.mem.L1Hits), float64(l1), fmt.Sprintf("%d L1 accesses", l1)),
		ratio("mem.l2_hit_frac", float64(c.mem.L2Hits), float64(l2), fmt.Sprintf("%d L2 accesses", l2)),
		exact("mem.dram_lines", "count", float64(c.mem.DRAMLines)),
		exact("mem.bank_wait_cycles", "cycles", float64(c.mem.BankWait)),
		exact("mem.context_bytes", "bytes", float64(c.mem.ContextBytes)),
		cpu("mem"),

		exact("syncmon.log_spills", "count", float64(c.res.LogSpills)),
		exact("syncmon.log_rejects", "count", float64(c.res.LogRejects)),
		exact("syncmon.max_conditions", "count", float64(c.res.MaxConditions)),
		exact("syncmon.max_log_entries", "count", float64(c.res.MaxLogEntries)),
		cpu("syncmon"),

		exact("cp.max_table", "count", float64(c.maxTable)),
		cpu("cp"),

		exact("policy.resumes", "count", float64(c.res.Resumes)),
		exact("policy.wasted_resumes", "count", float64(c.res.WastedResumes)),
		ratio("policy.useful_resume_frac", float64(c.res.Resumes-c.res.WastedResumes), float64(c.res.Resumes),
			fmt.Sprintf("%d resumes", c.res.Resumes)),
		exact("policy.timeouts", "count", float64(c.res.Timeouts)),
		exact("policy.predict_all", "count", float64(c.res.PredictAll)),
		exact("policy.predict_one", "count", float64(c.res.PredictOne)),
		cpu("policy"),

		cpu("core"),

		timing("sim.construct_ms", ms("sim.NewSession")),
		timing("sim.finish_ms", ms("sim.Finish")),
		timing("sim.release_ms", ms("sim.Release")),
		timing("sim.job_ms_p50", percentile(sp.jobNS, 0.5)/1e6),
		timing("sim.job_ms_p90", percentile(sp.jobNS, 0.9)/1e6),
		exact("sim.runs", "count", float64(last.runs)),
		exact("sim.cache_hits", "count", float64(last.cacheHits)),
		ratio("sim.cache_hit_frac", float64(last.cacheHits), float64(last.runs), fmt.Sprintf("sim.runs %d", last.runs)),
		exact("sim.forks", "count", float64(last.forks)),
		exact("sim.prefix_cycles_saved", "cycles", float64(last.prefixSaved)),
		ratio("sim.prefix_saved_frac", float64(last.prefixSaved), float64(c.cycles), fmt.Sprintf("gpu.sim_cycles %d", c.cycles)),
		exact("sim.snapshot_bytes", "bytes", float64(last.snapBytes)),
		ratio("sim.pool_efficiency", m.cpu, float64(o.workers)*m.wall,
			fmt.Sprintf("cpu_s %.6g over %d workers x wall_s %.6g", m.cpu, o.workers, m.wall)),
		cpu("sim"),

		timing("litmus.oracle_ms", ms("litmus.MustTerminate")),
		timing("litmus.generate_ms", float64(w.generate)/1e6),
		exact("litmus.expected_violations", "count", float64(last.expected)),
		cpu("litmus"),
		cpu("kernels"),
		cpu("prog"),
		cpu("hashutil"),
		cpu("fault"),
		cpu("metrics"),

		cpu("runtime"),
		{name: "runtime.gc_cpu_ms", unit: "ms", value: median(gcCPU), note: spread(gcCPU)},
		{name: "runtime.gc_cycles", unit: "count", value: median(gcCycles), note: spread(gcCycles)},
		{name: "runtime.alloc_mb", unit: "MB", value: median(allocMB), note: spread(allocMB)},
		{name: "runtime.max_rss_mb", unit: "MB", value: rss},

		{name: "trace.samples", unit: "count", value: float64(samples), note: fmt.Sprintf("at %d Hz", profileHz)},
		{name: "trace.overhead_frac", unit: "fraction", value: profWall/m.wall - 1,
			note: fmt.Sprintf("base: profiled pass %.6g s against untraced wall_s %.6g s", profWall, m.wall)},
	}
	for _, mt := range ml {
		mt.perLayer = true
		r.add(mt)
	}
	return nil
}

func frac(x int64, all map[string]int64) float64 {
	var sum int64
	for _, v := range all {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return float64(x) / float64(sum)
}

// profilePass is one pooled pass under the CPU profiler, returning the
// pass, its wall time, and the profile's CPU nanoseconds per layer.
func profilePass(w *workload, workers int, path string) (passOut, float64, map[string]int64, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return passOut{}, 0, nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	defer f.Close()
	resetSim()
	runtime.GC()
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a one-line warning to stderr about the second rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		runtime.SetCPUProfileRate(0)
		return passOut{}, 0, nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	t0 := time.Now()
	out := w.run(workers)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return passOut{}, 0, nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return passOut{}, 0, nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	ns, samples, err := layerCPU(data)
	return out, wall, ns, samples, err
}

// span is one timed call at a layer boundary. Parent indexes the job's
// span (-1 for a job span itself); Self is the duration its child spans do
// not cover.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layerCounts sums the exact counters of every job in the span pass.
type layerCounts struct {
	events, cycles, irOps, deadlocks uint64
	mem                              mem.Stats
	res                              metrics.Result // summed counters; max fields hold maxima
	maxTable                         int
}

func (c *layerCounts) add(m *gpu.Machine, res metrics.Result) {
	c.events += m.Engine().Executed()
	c.cycles += res.Cycles
	if res.Deadlocked {
		c.deadlocks++
	}
	s := m.Mem().Stats()
	c.mem.Atomics += s.Atomics
	c.mem.LocalAtomics += s.LocalAtomics
	c.mem.Loads += s.Loads
	c.mem.Stores += s.Stores
	c.mem.L1Hits += s.L1Hits
	c.mem.L1Miss += s.L1Miss
	c.mem.L2Hits += s.L2Hits
	c.mem.L2Miss += s.L2Miss
	c.mem.DRAMLines += s.DRAMLines
	c.mem.ContextBytes += s.ContextBytes
	c.mem.BankWait += s.BankWait
	c.res.SwitchesOut += res.SwitchesOut
	c.res.Stalls += res.Stalls
	c.res.LogSpills += res.LogSpills
	c.res.LogRejects += res.LogRejects
	c.res.MaxConditions = max(c.res.MaxConditions, res.MaxConditions)
	c.res.MaxLogEntries = max(c.res.MaxLogEntries, res.MaxLogEntries)
	c.res.Resumes += res.Resumes
	c.res.WastedResumes += res.WastedResumes
	c.res.Timeouts += res.Timeouts
	c.res.PredictAll += res.PredictAll
	c.res.PredictOne += res.PredictOne
	if mon, ok := m.Policy().(*policy.Monitor); ok {
		c.maxTable = max(c.maxTable, mon.CP().MaxTableSize())
	}
}

type spanOut struct {
	out    passOut // results and Verify failures; the oracles run in the pooled passes
	spans  []span
	total  map[string]int64 // self nanoseconds by span name
	jobNS  []float64        // job span durations
	counts layerCounts
}

// spanPass runs every job serially and cold through the session
// decomposition — NewSession, Prepare, RunTo, Finish, Release, plus the
// litmus oracles per cell — timing each call as a span and reading the
// exact counters. The run cache and fork planner are bypassed, so its
// digest matching the pooled passes' checks both from outside.
func spanPass(w *workload) (*spanOut, error) {
	sp := &spanOut{out: passOut{results: make([]metrics.Result, len(w.jobs))}, spans: make([]span, 0, 7*len(w.jobs))}
	t0 := time.Now()
	begin := func(name string, job, parent int) int {
		sp.spans = append(sp.spans, span{Name: name, Job: job, Parent: parent, Start: time.Since(t0).Nanoseconds()})
		return len(sp.spans) - 1
	}
	end := func(i int) { sp.spans[i].End = time.Since(t0).Nanoseconds() }
	ops0, _ := gpu.ExecStats()
	for i, cfg := range w.jobs {
		job := begin("job", i, -1)
		c := begin("sim.NewSession", i, job)
		s, err := sim.NewSession(cfg)
		end(c)
		if err != nil {
			return nil, fmt.Errorf("span pass job %d: %w", i, err)
		}
		m := s.Machine()
		c = begin("gpu.Prepare", i, job)
		m.Prepare()
		end(c)
		c = begin("gpu.RunTo", i, job)
		m.RunTo(m.CycleLimit())
		end(c)
		c = begin("sim.Finish", i, job)
		res, err := s.Finish()
		end(c)
		sp.out.results[i] = res
		if err != nil {
			sp.out.fail(err)
		}
		sp.counts.add(m, res)
		c = begin("sim.Release", i, job)
		s.Release()
		end(c)
		if w.cells != nil {
			c = begin("litmus.MustTerminate", i, job)
			for _, mdl := range litmus.Models() {
				litmus.MustTerminate(w.cells[i].pattern, mdl, w.cells[i].cap)
			}
			end(c)
		}
		end(job)
	}
	ops1, _ := gpu.ExecStats()
	sp.counts.irOps = ops1 - ops0

	sp.total = map[string]int64{}
	for i := range sp.spans {
		sp.spans[i].Self += sp.spans[i].End - sp.spans[i].Start
		if p := sp.spans[i].Parent; p >= 0 {
			sp.spans[p].Self -= sp.spans[i].End - sp.spans[i].Start
		}
	}
	for _, s := range sp.spans {
		sp.total[s.Name] += s.Self
		if s.Parent < 0 {
			sp.jobNS = append(sp.jobNS, float64(s.End-s.Start))
		}
	}
	return sp, nil
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// writeSpans writes spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
