package fleet_test

import (
	"testing"

	"awgsim/internal/fleet"
	"awgsim/internal/sim"
)

// FuzzFleetEvents feeds seed-generated churn schedules through small
// fleets of fuzzed size under a rotating policy and uses the SLO checker
// as the oracle: no panic, no wedged loop, IFP workloads either complete
// verified or are cleanly drained/diagnosed, non-IFP deadlocks carry a
// diagnosis, and a below-floor drain is never reported as an IFP outcome
// violation. The Makefile's ci target runs this for a short -fuzztime as
// a robustness smoke.
func FuzzFleetEvents(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	policies := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
	f.Fuzz(func(t *testing.T, seed uint64, devs, polIdx uint8) {
		numDevs := 2 + int(devs)%3 // 2..4 devices
		policy := policies[int(polIdx)%len(policies)]
		// floor 1: random schedules may strip the fleet to a single device
		// but never drain it; the drain path has its own deterministic test.
		plane := fleet.Random(seed, numDevs, 1, 10_000, 60_000)
		if err := plane.Validate(numDevs); err != nil {
			t.Fatalf("generated plane invalid: %v", err)
		}
		wls := make([]sim.Config, numDevs)
		for i := range wls {
			bench := "SPM_G"
			if i%2 == 1 {
				bench = "TB_LG"
			}
			wls[i] = tinyWorkload(policy, bench, uint64(i+1))
		}
		cfg := fleet.Config{
			Devices:         numDevs,
			MinDevices:      1,
			Workloads:       wls,
			Plane:           plane,
			CheckpointEvery: 10_000,
			FleetBudget:     30_000_000,
		}
		r, err := fleet.Run(cfg)
		if err != nil {
			t.Fatalf("fleet run: %v", err)
		}
		for _, v := range r.Violations {
			t.Errorf("SLO violation: %s", v)
		}
		if t.Failed() {
			t.Logf("fleet log:\n%s", r)
		}
	})
}
