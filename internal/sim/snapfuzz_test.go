package sim

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/fault"
)

// FuzzSnapshotRestore drives the snapshot contract with fuzzed run shapes:
// a (benchmark, policy, seed, fault schedule) run is simulated cold, then
// re-simulated with a snapshot taken at a fuzzed cycle — once continuing
// past the snapshot, once rewinding to it and replaying. All three must
// produce the same observables; any divergence means some stateful layer
// escaped Snapshot()/Restore().
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), uint16(900), uint64(0))
	f.Add(uint8(1), uint8(2), uint64(7), uint16(11_000), uint64(3))
	f.Add(uint8(2), uint8(1), uint64(42), uint16(30_000), uint64(5))
	f.Add(uint8(3), uint8(3), uint64(1), uint16(1), uint64(0))
	f.Fuzz(func(t *testing.T, benchSel, polSel uint8, seed uint64, cut uint16, faultSeed uint64) {
		benches := []string{"SPM_G", "FAM_G", "TB_LG", "SLM_G"}
		policies := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
		cfg := quickConfig(benches[int(benchSel)%len(benches)], policies[int(polSel)%len(policies)], false, seed)
		if faultSeed != 0 {
			// Oversubscribe and inject a random fault schedule so restores
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
		cold, coldDiag := normalize(coldSession.Machine().Run())

		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := s.Machine()
		m.Prepare()
		m.RunTo(1 + event.Cycle(cut))
		snap := m.Snapshot()
		if snap.Bytes() <= 0 {
			t.Fatalf("snapshot reports %d bytes", snap.Bytes())
		}
		m.RunTo(limit)
		cont, contDiag := normalize(m.FinishRun())
		if cont != cold || contDiag != coldDiag {
			t.Fatalf("run continued past a snapshot diverged from cold:\n  cold:      %+v\n  continued: %+v\n--- cold diag ---\n%s\n--- continued diag ---\n%s",
				cold, cont, coldDiag, contDiag)
		}

		m.Restore(snap)
		m.RunTo(limit)
		replay, replayDiag := normalize(m.FinishRun())
		if replay != cold || replayDiag != coldDiag {
			t.Fatalf("run restored to cycle %d diverged from cold:\n  cold:   %+v\n  replay: %+v\n--- cold diag ---\n%s\n--- replay diag ---\n%s",
				1+cut, cold, replay, coldDiag, replayDiag)
		}
	})
}
