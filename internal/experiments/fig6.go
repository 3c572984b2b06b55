package experiments

import (
	"fmt"
	"strings"

	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
	"awgsim/internal/trace"
)

// Fig6 reproduces the timeline-signature comparison as measured per-policy
// behaviour on a canonical two-phase wait: a producer WG updates a flag a
// few thousand cycles after consumers start waiting on it. The columns
// correspond to the annotations in the paper's timelines — how a waiter
// parks (busy / sleep / stall / context switch), how it is resumed
// (poll-retry / timer / sporadic notification / checked notification), and
// what that cost in atomics and wasted resumes.
func Fig6(o Options) (*metrics.Table, error) {
	pols := []string{"Baseline", "Sleep", "Timeout", "MonRS-All", "MonR-All", "MonNR-All", "MonNR-One", "AWG"}
	jobs := make([]sim.Job, len(pols))
	for i, p := range pols {
		jobs[i] = sim.Job{Key: p, Config: producerConsumerConfig(p, nil)}
	}
	t := metrics.NewTable("Figure 6: policy timeline signatures (producer/consumer episode)",
		"Policy", "Waits", "Atomics", "Resumes", "WastedResumes", "Timeouts", "Stalls", "CtxSwitches", "Cycles")
	for _, out := range sim.RunAll(jobs) {
		if out.Err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", out.Key, out.Err)
		}
		res := out.Result
		if res.Deadlocked {
			return nil, fmt.Errorf("fig6: producer/consumer deadlocked under %s", out.Key)
		}
		t.AddRow(out.Key, res.Stalls+res.Resumes, res.Atomics, res.Resumes,
			res.WastedResumes, res.Timeouts, res.Stalls,
			res.SwitchesOut+res.SwitchesIn, res.Cycles)
	}
	return t, nil
}

// Fig6Timelines renders measured Figure 6-style timelines (one lane per
// WG) for three representative policies on the producer/consumer episode:
// the busy-waiting Baseline (a wall of atomic attempts), MonNR-All (one
// attempt, stall, one resume) and AWG (resume-one plus timeouts when its
// prediction is wrong for the one-shot flag).
func Fig6Timelines(o Options) (string, error) {
	var b strings.Builder
	for _, p := range []string{"Baseline", "MonNR-All", "AWG"} {
		rec := trace.NewRecorder(100_000)
		res, err := sim.Run(producerConsumerConfig(p, rec))
		if err != nil {
			return "", fmt.Errorf("fig6 timeline %s: %w", p, err)
		}
		if res.Deadlocked {
			return "", fmt.Errorf("fig6 timeline: producer/consumer deadlocked under %s", p)
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", p, rec.Timeline(96))
	}
	return b.String(), nil
}

// producerConsumerConfig builds the episode: one producer WG and a CU's
// worth of consumers waiting on a flag the producer sets after a delay.
func producerConsumerConfig(policy string, rec *trace.Recorder) sim.Config {
	const flag = mem.Addr(0x8000)
	cfg := gpu.DefaultConfig()
	numWGs := cfg.MaxWGsPerCU // one CU's worth: producer + consumers
	spec := &gpu.KernelSpec{
		Name:       "ProducerConsumer",
		NumWGs:     numWGs,
		WIsPerWG:   64,
		VGPRsPerWI: 8,
		SGPRsPerWF: 128,
		IR:         kernels.HandoffIR(flag, 4000), // consumers wait roughly this long
	}
	return sim.Config{
		Policy: policy,
		Kernel: spec,
		Verify: func(read func(mem.Addr) int64) error {
			if got := read(flag); got != 1 {
				return fmt.Errorf("flag = %d after run", got)
			}
			return nil
		},
		GPU:    cfg,
		Tracer: rec,
	}
}
