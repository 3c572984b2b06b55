// Timeline: visualize how each scheduling architecture spends a wait, as
// measured Figure 6-style timelines — one lane per work-group, time
// flowing left to right.
//
//	go run ./examples/timeline
package main

import (
	"fmt"

	"awgsim/awg"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	"awgsim/internal/trace"
)

func main() {
	fmt.Println("Policy timelines on a producer/consumer episode")
	fmt.Println("===============================================")
	fmt.Println()
	fmt.Println("WG0 computes for ~4000 cycles and then writes a flag; seven")
	fmt.Println("consumers wait for it. Watch how each architecture waits.")
	fmt.Println()

	for _, policy := range []string{"Baseline", "Sleep", "MonRS-All", "MonNR-All", "AWG"} {
		rec := trace.NewRecorder(50_000)
		run(policy, rec)
		fmt.Printf("--- %s   (%s)\n", policy, rec.Signature())
		fmt.Println(rec.Timeline(100))
	}
}

func run(policy string, rec *trace.Recorder) {
	const flag = mem.Addr(0x8000)
	cfg := gpu.DefaultConfig()
	cfg.MaxWGsPerCU = 8
	spec := gpu.KernelSpec{
		Name: "episode", NumWGs: 8, WIsPerWG: 64,
		VGPRsPerWI: 8, SGPRsPerWF: 128,
		IR: kernels.HandoffIR(flag, 4000),
	}
	pol, err := awg.NewPolicy(policy)
	if err != nil {
		panic(err)
	}
	m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), &spec, pol)
	if err != nil {
		panic(err)
	}
	m.SetTracer(rec)
	if res := m.Run(); res.Deadlocked {
		panic(policy + " deadlocked")
	}
}
