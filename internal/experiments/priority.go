package experiments

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/metrics"
	"awgsim/internal/prog"
	"awgsim/internal/sim"
)

// Priority reproduces the benefit the paper claims in Section V.D
// ("Reducing interference with kernel scheduling"): a high-priority
// compute kernel arrives mid-run and preempts resident work-groups of a
// lower-priority synchronizing kernel. The experiment reports, per
// scheduling policy, the high-priority kernel's launch-to-finish latency
// and the slowdown it inflicts on the low-priority kernel, against that
// kernel's run with no injection.
//
// The mechanism under test: under AWG the low-priority kernel's waiting
// WGs are parked (stalled or switched out), so the kernel-level scheduler
// evicts WGs that were not making progress anyway; under busy-waiting
// every WG looks busy and the eviction can hit the critical-section
// holder, stalling the whole kernel for the high-priority kernel's
// entire residence.
func Priority(o Options) (*metrics.Table, error) {
	benches := []string{"SPM_G", "TB_LG"}
	pols := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
	injectAt := event.Cycle(50_000)
	if o.Quick {
		injectAt = 5_000
	}
	// The uninjected references are grid cells, shared with the other
	// experiments; the injected runs carry a kernel and always simulate.
	var cells []cell
	var jobs []sim.Job
	for _, b := range benches {
		for _, p := range pols {
			alone := cell{bench: b, policy: p, iters: priorityIters(o)}
			injected := o.simConfig(alone)
			injected.Inject = &sim.Injection{Spec: o.highPriorityKernel(), At: injectAt, Priority: 1}
			cells = append(cells, alone)
			jobs = append(jobs, sim.Job{Key: b + "/" + p + "/injected", Config: injected})
		}
	}
	grid, err := o.batch(cells)
	if err != nil {
		return nil, fmt.Errorf("priority %w", err)
	}
	outs := sim.RunAll(jobs)
	for _, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("priority %s: %w", out.Key, out.Err)
		}
	}
	t := metrics.NewTable("Priority injection: HP latency and LP overhead per policy",
		"Benchmark", "Policy", "LPalone", "LPwithHP", "LPoverhead", "HPlatency")
	for i, c := range cells {
		b, p := c.bench, c.policy
		alone, injected := grid[c], outs[i]
		lp := injected.Result
		overhead := "-"
		if alone.Cycles > 0 && !lp.Deadlocked {
			overhead = fmt.Sprintf("%.2fx", float64(lp.Cycles)/float64(alone.Cycles))
		}
		lpCell := any(lp.Cycles)
		if lp.Deadlocked {
			lpCell = deadlockMark
		}
		t.AddRow(b, p, alone.Cycles, lpCell, overhead, injected.InjectedLatency)
	}
	return t, nil
}

func priorityIters(o Options) int {
	if o.Quick {
		return 0
	}
	return 25 // long enough that the injection lands mid-kernel
}

// highPriorityKernel builds the injected compute kernel: one CU's worth of
// WGs, ~20k cycles each.
func (o Options) highPriorityKernel() *gpu.KernelSpec {
	cfg := o.gpuConfig()
	hpWork := event.Cycle(20_000)
	if o.Quick {
		hpWork = 4_000
	}
	b := prog.NewBuilder()
	b.Compute(prog.Imm(int64(hpWork)))
	return &gpu.KernelSpec{
		Name:       "HighPriority",
		NumWGs:     cfg.MaxWGsPerCU, // one CU's worth
		WIsPerWG:   64,
		VGPRsPerWI: 8,
		SGPRsPerWF: 128,
		IR:         b.MustBuild(),
	}
}
