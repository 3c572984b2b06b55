package sim

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/metrics"
)

// TestProofWaitsForMetAttempt: a waiter whose winning exchange has applied
// is not frozen, though memory now fails its condition, until the
// attempt's response lands. In this 2x SPM_G launch under MonNR-One, one
// WG's winning exchange has applied and its response is still in flight
// at the watchdog's first tick, while every other WG is frozen; a proof
// that ignored the applied win would declare the run deadlocked there,
// yet the run completes.
func TestProofWaitsForMetAttempt(t *testing.T) {
	g := gpu.DefaultConfig()
	p := kernels.DefaultParams()
	p.NumWGs = 2 * g.NumCUs * g.MaxWGsPerCU
	sched := fault.Random(1068456450875153090, g.NumCUs, 100_000, 800_000)
	res, err := Run(Config{Benchmark: "SPM_G", Policy: "MonNR-One", Params: p, Faults: &sched, CycleBudget: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Cycles != 3_321_180 {
		t.Fatalf("deadlocked=%v at cycle %d (%v), want completed at cycle 3321180", res.Deadlocked, res.Cycles, res.Diagnosis)
	}
}

// TestProofWaitsForRestore: a CU restore still on the calendar can free
// the slots a pending WG needs, so an oversubscribed Baseline launch that
// loses a CU and gets it back only after the progress window is not
// proven deadlocked; the window's watchdog ends it.
func TestProofWaitsForRestore(t *testing.T) {
	cfg := quickConfig("SPM_G", "Baseline", false, 0)
	cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU
	last := cfg.GPU.NumCUs - 1
	restoreAt := event.Cycle(100_000 + 2*cfg.GPU.ProgressWindow)
	cfg.Faults = &fault.Schedule{Name: "late-restore", Events: []fault.Event{
		{At: 100_000, Op: fault.CULoss, CU: last},
		{At: restoreAt, Op: fault.CURestore, CU: last},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diagnosis
	if d == nil || d.Reason != metrics.ReasonProgressStall || d.AtCycle >= uint64(restoreAt) {
		t.Fatalf("diagnosis %v, want %s before the restore at cycle %d", d, metrics.ReasonProgressStall, restoreAt)
	}
}

// TestNeverYieldsMatchesProvidesIFP: the deadlock proof asks a policy
// whether it ever yields a slot, and the IFP invariant asks
// fault.ProvidesIFP whether it promises independent forward progress. A
// policy that never yields cannot promise it, and every one that yields
// does.
func TestNeverYieldsMatchesProvidesIFP(t *testing.T) {
	for _, name := range append(Policies(), "Sleep-4k") {
		pol, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := pol.(interface{ NeverYields() bool })
		if never := ok && p.NeverYields(); never == fault.ProvidesIFP(name) {
			t.Errorf("%s: NeverYields %v, ProvidesIFP %v", name, never, fault.ProvidesIFP(name))
		}
	}
}
