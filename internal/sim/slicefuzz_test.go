package sim

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/fault"
)

// FuzzSlicedRun checks the step every fleet rewind relies on: a run driven
// in slices — Prepare, RunTo a fuzzed cut, RunTo the cycle limit,
// FinishRun — equals the cold Run of the same (benchmark, policy, seed,
// fault schedule). A divergence means some layer's behaviour depends on
// where its driver pauses the engine, and a rewind that re-runs to a
// checkpoint would not land where the original run stood.
func FuzzSlicedRun(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), uint16(900), uint64(0))
	f.Add(uint8(1), uint8(2), uint64(7), uint16(11_000), uint64(3))
	f.Add(uint8(2), uint8(1), uint64(42), uint16(30_000), uint64(5))
	f.Add(uint8(3), uint8(3), uint64(1), uint16(1), uint64(0))
	f.Fuzz(func(t *testing.T, benchSel, polSel uint8, seed uint64, cut uint16, faultSeed uint64) {
		benches := []string{"SPM_G", "FAM_G", "TB_LG", "SLM_G"}
		policies := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
		cfg := quickConfig(benches[int(benchSel)%len(benches)], policies[int(polSel)%len(policies)], false, seed)
		if faultSeed != 0 {
			// Oversubscribe and inject a random fault schedule so slices
			// cover deadlocks, CU loss, and monitor degradation.
			cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU
			sched := fault.Random(1+faultSeed%8, cfg.GPU.NumCUs, 10_000, 80_000)
			cfg.Faults = &sched
			cfg.CycleBudget = 20_000_000
		}
		limit := event.Cycle(cfg.GPU.MaxCycles)
		if cfg.CycleBudget != 0 && cfg.CycleBudget < uint64(limit) {
			limit = event.Cycle(cfg.CycleBudget)
		}

		coldSession, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer coldSession.Release()
		cold, coldDiag := normalize(coldSession.Machine().Run())

		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		m := s.Machine()
		m.Prepare()
		m.RunTo(1 + event.Cycle(cut))
		m.RunTo(limit)
		sliced, slicedDiag := normalize(m.FinishRun())
		if sliced != cold || slicedDiag != coldDiag {
			t.Fatalf("run sliced at cycle %d diverged from cold:\n  cold:   %+v\n  sliced: %+v\n--- cold diag ---\n%s\n--- sliced diag ---\n%s",
				1+cut, cold, sliced, coldDiag, slicedDiag)
		}
	})
}
