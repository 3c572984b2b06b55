package fault_test

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
	"awgsim/internal/trace"
)

// FuzzSchedule feeds seed-generated fault schedules through a small
// oversubscribed simulation under a rotating policy and enforces the IFP
// invariant on every outcome: no panic, IFP policies complete verified,
// non-IFP deadlocks carry a structured diagnosis. A run the deadlock proof
// ends continues one more progress window, in which no WG may progress.
// The Makefile's ci target runs this for a short -fuzztime as a robustness
// smoke.
func FuzzSchedule(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	policies := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
	f.Fuzz(func(t *testing.T, seed uint64, polIdx uint8) {
		policy := policies[int(polIdx)%len(policies)]
		gcfg := gpu.DefaultConfig()
		gcfg.NumCUs = 2
		gcfg.MaxWGsPerCU = 4
		gcfg.ProgressWindow = 100_000
		sched := fault.Random(seed, gcfg.NumCUs, 5_000, 40_000)
		if err := sched.Validate(gcfg.NumCUs); err != nil {
			t.Fatalf("generated schedule invalid: %v", err)
		}
		p := kernels.DefaultParams()
		p.Groups = gcfg.NumCUs
		p.NumWGs = 2 * gcfg.NumCUs * gcfg.MaxWGsPerCU // oversubscribed 2x
		p.Iters = 3
		s, err := sim.NewSession(sim.Config{
			Benchmark:   "SPM_G",
			Policy:      policy,
			GPU:         gcfg,
			Params:      p,
			Faults:      &sched,
			CycleBudget: 5_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		m := s.Machine()
		m.Prepare()
		m.RunTo(m.CycleLimit())
		res, err := s.Finish()
		if cerr := fault.CheckOutcome(policy, res, err); cerr != nil {
			t.Fatal(cerr)
		}
		if d := res.Diagnosis; d != nil && d.Reason == metrics.ReasonProvenDeadlock {
			// The proof must hold: one more progress window starts,
			// finishes and ends the wait of no WG.
			rec := trace.NewRecorder(0)
			m.SetTracer(rec)
			m.RunTo(m.Engine().Now() + event.Cycle(gcfg.ProgressWindow))
			if n := rec.CountByKind(); n[trace.Start]+n[trace.Acquired]+n[trace.Finish] > 0 {
				t.Fatalf("%s under %s: proven deadlocked at cycle %d, then %d starts, %d episode ends, %d finishes",
					policy, sched, d.AtCycle, n[trace.Start], n[trace.Acquired], n[trace.Finish])
			}
		}
	})
}
