package main

import (
	"fmt"
	"time"

	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/litmus"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// workload is one fixed job list and the public entry point that runs it.
// Every input is derived from the -seed flag before the first pass; the
// simulator only ever sees the generated configs.
type workload struct {
	name   string
	inputs string // the values derived from -seed, for the run header
	jobs   []sim.Config
	// run executes one pass over jobs with the given pool width, through
	// the same public call a user of this traffic makes, and applies the
	// workload's outcome oracle to every job.
	run func(workers int) passOut
	// cells pairs each litmus-hunt job with its pattern and capacity, for
	// the span pass's oracle spans; nil on the other workloads.
	cells []litmusCell
	// generate is how long litmus.Generate took (litmus-hunt only).
	generate time.Duration
}

type litmusCell struct {
	pattern kernels.Litmus
	cap     int
}

// passOut is one pass's per-job results in job order and its failures.
type passOut struct {
	results  []metrics.Result
	failed   int
	firstErr error
	expected int // litmus-hunt: documented non-IFP outcomes, not failures
}

func (p *passOut) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

var workloadNames = []string{"spin-contention", "monitor-oversub", "fault-churn", "litmus-hunt"}

// newWorkload builds the named workload from seed. tiny shrinks every
// dimension so the package tests can run all four in a few seconds.
func newWorkload(name string, seed uint64, tiny bool) (*workload, error) {
	switch name {
	case "spin-contention":
		return spinContention(seed, tiny), nil
	case "monitor-oversub":
		return monitorOversub(seed, tiny), nil
	case "fault-churn":
		return faultChurn(seed, tiny), nil
	case "litmus-hunt":
		return litmusHunt(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// derive draws n non-zero values from the splitmix64 stream addressed by
// (seed, stream). Each use of the seed reads its own stream, so the jitter
// seeds, the random fault schedules and the litmus generator seed never
// shift one another.
func derive(seed, stream uint64, n int) []uint64 {
	state := seed ^ stream*0xd1b54a32d192ed03
	out := make([]uint64, n)
	for i := range out {
		state += 0x9e3779b97f4a7c15
		x := state
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
		if x == 0 {
			x = 1 // a zero jitter seed selects the machine's historical stream
		}
		out[i] = x
	}
	return out
}

// spinContention is busy-wait traffic on the Table 1 machine: polling
// hammers the L2 banks and the atomic pipeline, the Baseline mechanism the
// paper improves on. The monitor hardware never runs here.
func spinContention(seed uint64, tiny bool) *workload {
	benches, jitter, p := kernels.All(), derive(seed, 1, 3), kernels.DefaultParams()
	if tiny {
		benches, jitter, p.Iters = benches[:2], jitter[:1], 1
	}
	var jobs []sim.Config
	for _, b := range benches {
		for _, pol := range []string{"Baseline", "Sleep-4k", "Timeout-1k"} {
			for _, s := range jitter {
				jobs = append(jobs, sim.Config{Benchmark: b, Policy: pol, Params: p, Seed: s})
			}
		}
	}
	return poolWorkload("spin-contention", fmt.Sprintf("jitter seeds %v", jitter), jobs, mustComplete)
}

// monitorOversub is Figure 15's traffic: one CU is preempted mid-kernel,
// and waiting WGs yield, spill and resume through SyncMon, the CP and
// context save/restore.
func monitorOversub(seed uint64, tiny bool) *workload {
	benches, jitter, p := kernels.All(), derive(seed, 2, 2), kernels.DefaultParams()
	p.Iters = 40
	if tiny {
		benches, jitter, p.Iters = benches[:2], jitter[:1], 2
	}
	var jobs []sim.Config
	for _, b := range benches {
		for _, pol := range []string{"Timeout", "MonNR-All", "MonNR-One", "AWG"} {
			for _, s := range jitter {
				jobs = append(jobs, sim.Config{Benchmark: b, Policy: pol, Params: p, Oversubscribe: true, Seed: s})
			}
		}
	}
	return poolWorkload("monitor-oversub", fmt.Sprintf("jitter seeds %v", jitter), jobs, mustComplete)
}

// faultChurn is the faults experiment's shape at full scale: a 2x-capacity
// launch under scripted and seed-drawn random fault schedules. It is the
// only workload on which the fork planner runs.
func faultChurn(seed uint64, tiny bool) *workload {
	const base = 100_000
	g := gpu.DefaultConfig()
	p := kernels.DefaultParams()
	p.NumWGs = 2 * g.NumCUs * g.MaxWGsPerCU
	benches := []string{"SPM_G", "TB_LG"}
	scheds := fault.Scripted(g.NumCUs, base)
	randSeeds := derive(seed, 3, 8)
	for _, s := range randSeeds {
		scheds = append(scheds, fault.Random(s, g.NumCUs, base, 8*base))
	}
	if tiny {
		benches, scheds, p.Iters = benches[:1], append(scheds[:1:1], scheds[5]), 1
	}
	var jobs []sim.Config
	for _, b := range benches {
		for _, pol := range []string{"Baseline", "Timeout", "MonNR-All", "MonNR-One", "AWG"} {
			for i := range scheds {
				s := scheds[i]
				jobs = append(jobs, sim.Config{Benchmark: b, Policy: pol, Params: p, Faults: &s, CycleBudget: 200_000_000})
			}
		}
	}
	check := func(cfg sim.Config, res metrics.Result, err error) error {
		return fault.CheckOutcome(cfg.Policy, res, err)
	}
	return poolWorkload("fault-churn", fmt.Sprintf("random fault schedule seeds %v", randSeeds), jobs, check)
}

// litmusPolicies matches the conformance experiment's policy set.
var litmusPolicies = []string{"Baseline", "Sleep", "Timeout", "MonNR-All", "MonNR-One", "AWG"}

// litmusHunt is awglitmus hunt traffic: thousands of runs of a few hundred
// cycles each, where per-run fixed cost dominates and the event loop does
// not.
func litmusHunt(seed uint64, tiny bool) *workload {
	count := 2000
	if tiny {
		count = 20
	}
	genSeed := derive(seed, 4, 1)[0]
	w := &workload{name: "litmus-hunt", inputs: fmt.Sprintf("litmus generator seed %d, %d patterns", genSeed, count)}
	t0 := time.Now()
	pats := litmus.Generate(genSeed, count)
	w.generate = time.Since(t0)
	occs := litmus.Occupancies()
	for _, l := range pats {
		for _, pol := range litmusPolicies {
			for _, occ := range occs {
				c := occ.Cap(l.NumWGs())
				w.jobs = append(w.jobs, litmus.RunConfig(l, pol, c, 0))
				w.cells = append(w.cells, litmusCell{pattern: l, cap: c})
			}
		}
	}
	cellKey := func(c litmus.Cell) string { return fmt.Sprintf("%d|%s|%s", c.Pattern, c.Policy, c.Occ) }
	w.run = func(workers int) passOut {
		s := litmus.Conformance(pats, litmusPolicies, occs, 0, workers)
		unexpected := s.Unexpected()
		bad := make(map[string]error, len(unexpected))
		for _, v := range unexpected {
			bad[cellKey(v.Cell)] = fmt.Errorf("litmus: %s", v.Detail)
		}
		out := passOut{results: make([]metrics.Result, len(s.Cells)), expected: len(s.Violations) - len(unexpected)}
		for i, c := range s.Cells {
			out.results[i] = c.Result
			switch {
			case c.Err != nil:
				out.fail(c.Err)
			case bad[cellKey(c)] != nil:
				out.fail(bad[cellKey(c)])
			}
		}
		return out
	}
	return w
}

// poolWorkload runs jobs through sim.RunAllWorkers and checks every
// outcome with check.
func poolWorkload(name, inputs string, jobs []sim.Config, check func(sim.Config, metrics.Result, error) error) *workload {
	simJobs := make([]sim.Job, len(jobs))
	for i, cfg := range jobs {
		simJobs[i] = sim.Job{Config: cfg}
	}
	run := func(workers int) passOut {
		outs := sim.RunAllWorkers(simJobs, workers)
		out := passOut{results: make([]metrics.Result, len(outs))}
		for i, o := range outs {
			out.results[i] = o.Result
			if err := check(jobs[i], o.Result, o.Err); err != nil {
				out.fail(err)
			}
		}
		return out
	}
	return &workload{name: name, inputs: inputs, jobs: jobs, run: run}
}

// mustComplete is the oracle for workloads every policy must finish: no
// error (which includes the kernel's functional Verify) and no stall.
func mustComplete(cfg sim.Config, res metrics.Result, err error) error {
	if err != nil {
		return err
	}
	if res.Deadlocked {
		why := "no diagnosis"
		if res.Diagnosis != nil {
			why = res.Diagnosis.Summary()
		}
		return fmt.Errorf("%s under %s did not complete: %s", cfg.Benchmark, cfg.Policy, why)
	}
	return nil
}
