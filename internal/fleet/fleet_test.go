package fleet_test

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/fleet"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// tinyWorkload is a small oversubscribed simulation that finishes in a few
// hundred thousand cycles under IFP policies and deadlocks (diagnosed)
// under Baseline.
func tinyWorkload(policy, bench string, seed uint64) sim.Config {
	gcfg := gpu.DefaultConfig()
	gcfg.NumCUs = 2
	gcfg.MaxWGsPerCU = 4
	gcfg.ProgressWindow = 100_000
	p := kernels.DefaultParams()
	p.Groups = gcfg.NumCUs
	p.NumWGs = 2 * gcfg.NumCUs * gcfg.MaxWGsPerCU // oversubscribed 2x
	p.Iters = 3
	return sim.Config{
		Benchmark:   bench,
		Policy:      policy,
		GPU:         gcfg,
		Params:      p,
		CycleBudget: 5_000_000,
		Seed:        seed,
	}
}

func tinyFleet(policy string, plane fleet.Schedule) fleet.Config {
	return fleet.Config{
		Devices:    4,
		MinDevices: 2,
		Workloads: []sim.Config{
			tinyWorkload(policy, "SPM_G", 1),
			tinyWorkload(policy, "TB_LG", 2),
			tinyWorkload(policy, "SPM_G", 3),
			tinyWorkload(policy, "TB_LG", 4),
		},
		Plane:           plane,
		CheckpointEvery: 10_000,
		FleetBudget:     20_000_000,
	}
}

func run(t *testing.T, cfg fleet.Config) *fleet.Result {
	t.Helper()
	r, err := fleet.Run(cfg)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return r
}

func TestSteadyFleetCompletes(t *testing.T) {
	r := run(t, tinyFleet("AWG", fleet.Schedule{Name: "steady"}))
	if r.Degraded || len(r.Violations) != 0 {
		t.Fatalf("steady AWG fleet: degraded=%v violations=%v", r.Degraded, r.Violations)
	}
	for _, w := range r.Workloads {
		if w.Err != nil || w.Result.Deadlocked {
			t.Fatalf("workload %d: err=%v deadlocked=%v", w.ID, w.Err, w.Result.Deadlocked)
		}
	}
}

// TestMigrationMidWaitWakesOnce is the cross-device single-home test: the
// single-loss plane fires while the oversubscribed workload's WGs are deep
// in synchronization waits, so the victim workload migrates mid-wait. The
// migration rebuilds the machine and re-runs it to the checkpoint on the
// surviving device; if any waiter were left double-homed it would wake
// twice and corrupt the producer/consumer counters, which the post-run functional
// verification (run by Session.Finish for every completed workload)
// catches. The test therefore requires: a migration actually happened off
// the lost device, every workload completed verified, and the migration
// log shows a single coherent home chain per workload.
func TestMigrationMidWaitWakesOnce(t *testing.T) {
	plane := fleet.Scripted(4, 5_000)[1] // single-loss: device 3 at cycle 15k
	r := run(t, tinyFleet("AWG", plane))
	if len(r.Migrations) == 0 {
		t.Fatalf("single-loss plane produced no migration:\n%s", r)
	}
	if r.Degraded || len(r.Violations) != 0 {
		t.Fatalf("degraded=%v violations=%v", r.Degraded, r.Violations)
	}
	for _, w := range r.Workloads {
		if w.Err != nil {
			t.Errorf("workload %d failed verification after migration: %v", w.ID, w.Err)
		}
		if w.Result.Deadlocked {
			t.Errorf("workload %d deadlocked: %v", w.ID, w.Result.Diagnosis)
		}
	}
	// Each workload's migrations chain: it leaves the device it was on and
	// lands somewhere else — never two homes at once.
	last := map[int]int{}
	for _, m := range r.Migrations {
		if m.From == m.To {
			t.Errorf("migration to the same device: %+v", m)
		}
		if prev, ok := last[m.Workload]; ok && m.From != prev {
			t.Errorf("workload %d home chain broken: migrated from dev%d but last landed on dev%d", m.Workload, m.From, prev)
		}
		last[m.Workload] = m.To
	}
	for wl, dev := range last {
		if got := r.Workloads[wl].Device; got != dev {
			t.Errorf("workload %d final home dev%d, migration log says dev%d", wl, got, dev)
		}
	}
}

// TestFleetDeterminism renders the same churn-heavy fleet twice on
// separate goroutines (the experiment pool does exactly this) and demands
// byte-identical output — the fleet loop must stay deterministic at
// GOMAXPROCS >= 2.
func TestFleetDeterminism(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	cfg := func() fleet.Config {
		c := tinyFleet("AWG", fleet.Scripted(4, 5_000)[6]) // mixed: throttle+loss+ECC+restore
		c.DeviceFaults = make([]fault.Schedule, c.Devices)
		for d := range c.DeviceFaults {
			c.DeviceFaults[d] = fault.Random(uint64(d+1), 2, 5_000, 40_000)
		}
		c.SLO.StallWindow = 5_000_000
		return c
	}
	out := make([]string, 2)
	res := make([]*fleet.Result, 2)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := fleet.Run(cfg())
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			res[i] = r
			out[i] = r.String()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if out[0] != out[1] {
		t.Fatalf("fleet renders diverged:\n--- run 0 ---\n%s\n--- run 1 ---\n%s", out[0], out[1])
	}
	if !reflect.DeepEqual(res[0].Events, res[1].Events) || !reflect.DeepEqual(res[0].Migrations, res[1].Migrations) {
		t.Fatal("fleet logs diverged structurally")
	}
}

// TestDrainBelowFloor loses three of four devices against a floor of two:
// the fleet must degrade cleanly — every live workload stopped with a
// structured fleet-drain diagnosis, no deadlock, no undiagnosed drain.
func TestDrainBelowFloor(t *testing.T) {
	blackout := fleet.Schedule{Name: "blackout", Events: []fleet.Event{
		{At: 15_000, Kind: fleet.DeviceLoss, Device: 3},
		{At: 20_000, Kind: fleet.DeviceLoss, Device: 2},
		{At: 25_000, Kind: fleet.DeviceLoss, Device: 1},
	}}
	r := run(t, tinyFleet("AWG", blackout))
	if !r.Degraded {
		t.Fatalf("fleet survived below its floor:\n%s", r)
	}
	for _, v := range r.Violations {
		if v.Kind == fleet.ViolationDrain {
			t.Errorf("undiagnosed drain: %s", v)
		}
		if v.Kind == fleet.ViolationOutcome {
			t.Errorf("drain charged as an IFP violation: %s", v)
		}
	}
	drained := 0
	for _, w := range r.Workloads {
		if !w.Drained {
			continue
		}
		drained++
		if w.Result.Diagnosis == nil || w.Result.Diagnosis.Reason != metrics.ReasonFleetDrain {
			t.Errorf("workload %d drained without a fleet-drain diagnosis: %+v", w.ID, w.Result.Diagnosis)
		}
	}
	if drained == 0 {
		t.Fatalf("no workload drained:\n%s", r)
	}
}

// TestBaselineDiagnosedUnderChurn: the non-IFP control hangs under
// oversubscription, and the fleet must report it diagnosed — not starve
// the SLO checker or wedge the loop.
func TestBaselineDiagnosedUnderChurn(t *testing.T) {
	plane := fleet.Scripted(4, 5_000)[1] // single-loss
	cfg := tinyFleet("Baseline", plane)
	r := run(t, cfg)
	deadlocked := 0
	for _, w := range r.Workloads {
		if w.Result.Deadlocked {
			deadlocked++
			if w.Result.Diagnosis == nil {
				t.Errorf("workload %d deadlocked without a diagnosis", w.ID)
			}
		}
	}
	if deadlocked == 0 {
		t.Fatalf("oversubscribed Baseline fleet completed — the control is broken:\n%s", r)
	}
	for _, v := range r.Violations {
		if v.Kind == fleet.ViolationOutcome {
			t.Errorf("diagnosed Baseline deadlock flagged as outcome violation: %s", v)
		}
	}
}

// TestPlaneEventsLoggedInOrder drives one event of each remediating kind
// through the plane: the health-event log records them in time order with
// their XIDs, and the loss migrates the lost device's workload.
func TestPlaneEventsLoggedInOrder(t *testing.T) {
	plane := fleet.Schedule{Name: "trio", Events: []fleet.Event{
		{At: 12_000, Kind: fleet.ThermalThrottle, Device: 0, Scale: 2},
		{At: 18_000, Kind: fleet.DeviceLoss, Device: 3},
		{At: 22_000, Kind: fleet.ECCError, Device: 1, Page: 0, Pages: 2},
	}}
	r := run(t, tinyFleet("AWG", plane))
	type logged struct {
		At   event.Cycle
		Kind fleet.Kind
		XID  uint64
	}
	var got []logged
	for _, e := range r.Events {
		got = append(got, logged{e.At, e.Kind, e.XID})
	}
	want := []logged{
		{12_000, fleet.ThermalThrottle, fleet.XIDNone},
		{18_000, fleet.DeviceLoss, fleet.XIDFellOffBus},
		{22_000, fleet.ECCError, fleet.XIDDoubleBitECC},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("health events %+v, want %+v", got, want)
	}
	if len(r.Migrations) == 0 {
		t.Fatalf("device loss migrated nothing:\n%s", r)
	}
	m := r.Migrations[0]
	if m.From != 3 || m.Workload != 3 || m.Cause != "device-loss" {
		t.Fatalf("first migration %+v, want workload 3 off device 3 for the loss", m)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
}

// constructionArmed runs wcfg as a plain session with sched armed at
// construction: the run a fleet workload's device faults must match.
func constructionArmed(t *testing.T, wcfg sim.Config, sched fault.Schedule) (metrics.Result, error) {
	t.Helper()
	wcfg.Faults = &sched
	s, err := sim.NewSession(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	return s.Run()
}

// TestOneDeviceFleetMatchesSimRun pins the placement half of device-fault
// arming: a one-device fleet, which arms its device's faults after
// sim.NewSession and before Prepare, must produce exactly the result of
// the same schedule armed at construction by a plain session.
func TestOneDeviceFleetMatchesSimRun(t *testing.T) {
	for _, policy := range []string{"Baseline", "Timeout", "MonNR-All", "AWG"} {
		for seed := uint64(1); seed <= 3; seed++ {
			sched := fault.Random(seed, 2, 5_000, 40_000)
			wcfg := tinyWorkload(policy, "SPM_G", seed)
			r := run(t, fleet.Config{
				Devices:      1,
				Workloads:    []sim.Config{wcfg},
				DeviceFaults: []fault.Schedule{sched},
			})
			want, werr := constructionArmed(t, wcfg, sched)
			got := r.Workloads[0]
			if (got.Err == nil) != (werr == nil) || !reflect.DeepEqual(got.Result, want) {
				t.Errorf("%s under %s: fleet %+v (err %v), sim %+v (err %v)",
					policy, sched, got.Result, got.Err, want, werr)
			}
		}
	}
}

// TestMigratedFaultTailMatchesConstructionArm pins the migration half of
// device-fault arming: a workload that loses its device, rewinds to its
// checkpoint, and picks up the target device's schedule must run exactly
// as if that schedule had been armed at construction. The faults sweep a
// 40-cycle window just past the checkpoint, so some land on cycles where
// the calendar already holds machine events; armed after Prepare instead
// of at construction, such a fault would fire after those events instead
// of before them.
func TestMigratedFaultTailMatchesConstructionArm(t *testing.T) {
	for _, policy := range []string{"Baseline", "Timeout", "MonNR-All", "AWG"} {
		for at := event.Cycle(10_001); at <= 10_040; at++ {
			tail := fault.Schedule{Name: "tail", Events: []fault.Event{
				{At: at, Op: fault.CULoss, CU: 1},
				{At: at + 5_000, Op: fault.CURestore, CU: 1},
			}}
			wcfg := tinyWorkload(policy, "SPM_G", 1)
			r := run(t, fleet.Config{
				Devices:         2,
				Workloads:       []sim.Config{wcfg},
				DeviceFaults:    []fault.Schedule{{}, tail},
				Plane:           fleet.Schedule{Name: "lose-0", Events: []fleet.Event{{At: 15_000, Kind: fleet.DeviceLoss, Device: 0}}},
				CheckpointEvery: 10_000,
			})
			if len(r.Migrations) != 1 {
				t.Fatalf("%s: want one migration off device 0:\n%s", policy, r)
			}
			want, werr := constructionArmed(t, wcfg, tail)
			got := r.Workloads[0]
			if (got.Err == nil) != (werr == nil) || !reflect.DeepEqual(got.Result, want) {
				t.Errorf("%s, faults from cycle %d: migrated run took %d cycles (err %v), construction-armed run %d (err %v)",
					policy, at, got.Result.Cycles, got.Err, want.Cycles, werr)
			}
		}
	}
}

func TestPlaneValidateErrorsCarrySeedAndIndex(t *testing.T) {
	s := fleet.Schedule{Name: "rand-9", Seed: 9, Events: []fleet.Event{
		{At: 100, Kind: fleet.DeviceLoss, Device: 0},
		{At: 200, Kind: fleet.DeviceLoss, Device: 0}, // lost twice
	}}
	err := s.Validate(2)
	if err == nil {
		t.Fatal("double loss validated")
	}
	for _, want := range []string{"seed=9", "event 1", "rand-9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	cases := []fleet.Schedule{
		{Name: "dev", Events: []fleet.Event{{At: 1, Kind: fleet.DeviceLoss, Device: 5}}},
		{Name: "zero", Events: []fleet.Event{{At: 0, Kind: fleet.DeviceLoss, Device: 0}}},
		{Name: "order", Events: []fleet.Event{{At: 9, Kind: fleet.ThermalThrottle, Device: 0, Scale: 2}, {At: 3, Kind: fleet.ThermalThrottle, Device: 0, Scale: 1}}},
		{Name: "scale", Events: []fleet.Event{{At: 1, Kind: fleet.ThermalThrottle, Device: 0}}},
		{Name: "pages", Events: []fleet.Event{{At: 1, Kind: fleet.ECCError, Device: 0}}},
		{Name: "restore", Events: []fleet.Event{{At: 1, Kind: fleet.DeviceRestore, Device: 0}}},
	}
	for _, c := range cases {
		if err := c.Validate(2); err == nil {
			t.Errorf("schedule %s validated", c.Name)
		} else if !strings.Contains(err.Error(), "event 0") && !strings.Contains(err.Error(), "event 1") {
			t.Errorf("schedule %s error %q names no event index", c.Name, err)
		}
	}
}

func TestRandomPlanesValidateAndRespectFloor(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := fleet.Random(seed, 4, 2, 10_000, 80_000)
		if s.Seed != seed {
			t.Fatalf("seed %d not recorded", seed)
		}
		if err := s.Validate(4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		onBus := 4
		for _, e := range s.Events {
			switch e.Kind {
			case fleet.DeviceLoss:
				onBus--
			case fleet.DeviceRestore:
				onBus++
			}
			if onBus < 2 {
				t.Fatalf("seed %d dips below floor", seed)
			}
		}
	}
	a := fleet.Random(7, 4, 2, 10_000, 80_000)
	b := fleet.Random(7, 4, 2, 10_000, 80_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Random not deterministic")
	}
}

// TestRandomShortSpanSpreads pins the same degenerate-schedule fix as
// fault.Random's: with span < n the old step divisor truncated to 1 and
// every churn event landed at exactly base. The clamped divisor keeps a
// 0-or-1 cycle gap per event.
func TestRandomShortSpanSpreads(t *testing.T) {
	// As in fault's test, a single seed may legitimately draw all-zero
	// gaps; the pin is on the population (the old code collapsed all 16).
	bursts := 0
	for seed := uint64(1); seed <= 16; seed++ {
		s := fleet.Random(seed, 4, 2, 1000, 3)
		if err := s.Validate(4); err != nil {
			t.Fatalf("seed %d: short-span schedule invalid: %v", seed, err)
		}
		ats := map[event.Cycle]bool{}
		for _, e := range s.Events {
			if e.At < 1000 || e.At > 1000+event.Cycle(8) {
				t.Fatalf("seed %d: event at %d outside the window", seed, e.At)
			}
			ats[e.At] = true
		}
		if len(ats) < 2 {
			bursts++
		}
	}
	if bursts > 3 {
		t.Errorf("%d/16 short-span seeds collapsed to a single timestamp", bursts)
	}
}

// TestScriptedPlanesValidate pins the scripted set: all validate on a
// 4-device fleet and every event kind is covered.
func TestScriptedPlanesValidate(t *testing.T) {
	scheds := fleet.Scripted(4, 10_000)
	if len(scheds) < 8 {
		t.Fatalf("only %d scripted schedules", len(scheds))
	}
	covered := map[fleet.Kind]bool{}
	for _, s := range scheds {
		if err := s.Validate(4); err != nil {
			t.Errorf("%v", err)
		}
		for _, e := range s.Events {
			covered[e.Kind] = true
		}
	}
	for _, k := range []fleet.Kind{fleet.DeviceLoss, fleet.DeviceRestore, fleet.ThermalThrottle, fleet.ECCError} {
		if !covered[k] {
			t.Errorf("no scripted schedule exercises %v", k)
		}
	}
}

// TestThermalAndECCUnderIFP drives the derate and ECC paths end to end:
// throttled pacing, CP cadence scaling, poison + rewind — and the IFP
// workloads must still complete verified.
func TestThermalAndECCUnderIFP(t *testing.T) {
	for _, policy := range []string{"Timeout", "AWG"} {
		for _, idx := range []int{4, 5} { // thermal-wave, ecc-scrub
			plane := fleet.Scripted(4, 5_000)[idx]
			r := run(t, tinyFleet(policy, plane))
			if len(r.Violations) != 0 {
				t.Errorf("%s under %s: %v", policy, plane.Name, r.Violations)
			}
			if idx == 5 {
				rewound := 0
				for _, w := range r.Workloads {
					rewound += w.Recoveries
				}
				if rewound == 0 {
					t.Errorf("%s under ecc-scrub rewound nothing:\n%s", policy, r)
				}
			}
		}
	}
}

// TestFleetBudgetDiagnosis: an absurdly small fleet budget must leave the
// unfinished workloads diagnosed with the fleet-budget reason, never
// hanging.
func TestFleetBudgetDiagnosis(t *testing.T) {
	cfg := tinyFleet("AWG", fleet.Schedule{Name: "steady"})
	cfg.FleetBudget = 30_000
	cfg.SLO.CompletionDeadline = 30_000
	r := run(t, cfg)
	for _, w := range r.Workloads {
		if w.Result.Deadlocked && (w.Result.Diagnosis == nil || w.Result.Diagnosis.Reason != metrics.ReasonFleetBudget) {
			t.Errorf("workload %d: wrong budget diagnosis %+v", w.ID, w.Result.Diagnosis)
		}
	}
}

// TestStarvationDetector arms a stall window small enough that Baseline's
// busy-wait hang trips it; the violation must name the workload before the
// run ends. (Baseline is not IFP, so the detector must NOT flag it — use
// Timeout with an impossible window instead to see the positive case on a
// completing policy, and Baseline to see the suppression.)
func TestStarvationDetector(t *testing.T) {
	cfg := tinyFleet("Baseline", fleet.Schedule{Name: "steady"})
	cfg.SLO.StallWindow = 20_000
	r := run(t, cfg)
	for _, v := range r.Violations {
		if v.Kind == fleet.ViolationStarvation {
			t.Errorf("starvation flagged on non-IFP Baseline: %s", v)
		}
	}
	// A 1-cycle stall window flags even healthy IFP runs between WG
	// completions — the detector's positive path.
	cfg = tinyFleet("AWG", fleet.Schedule{Name: "steady"})
	cfg.SLO.StallWindow = 1
	r = run(t, cfg)
	found := false
	for _, v := range r.Violations {
		if v.Kind == fleet.ViolationStarvation {
			found = true
		}
	}
	if !found {
		t.Fatal("1-cycle stall window tripped nothing")
	}
}

func TestConfigRejects(t *testing.T) {
	one := []sim.Config{tinyWorkload("AWG", "SPM_G", 1)}
	inject := tinyWorkload("AWG", "SPM_G", 1)
	inject.Inject = &sim.Injection{At: 10_000}
	bad := []fleet.Config{
		{Devices: 0, Workloads: one},
		{Devices: 2},
		{Devices: 2, MinDevices: 3, Workloads: one},
		{Devices: 2, Workloads: one, DeviceFaults: []fault.Schedule{{}}},
		{Devices: 2, Workloads: []sim.Config{{Benchmark: "SPM_G", Policy: "AWG", Faults: &fault.Schedule{}}}},
		{Devices: 2, Workloads: []sim.Config{inject}},
		// An out-of-order plane is rejected, not sorted.
		{Devices: 2, Workloads: one, Plane: fleet.Schedule{Name: "order", Events: []fleet.Event{
			{At: 9_000, Kind: fleet.ThermalThrottle, Device: 0, Scale: 2},
			{At: 3_000, Kind: fleet.ThermalThrottle, Device: 1, Scale: 2},
		}}},
		// A device fault at cycle 0 cannot be armed after launch.
		{Devices: 1, Workloads: one, DeviceFaults: []fault.Schedule{{Name: "zero", Events: []fault.Event{
			{At: 0, Op: fault.CULoss, CU: 1},
		}}}},
		// Device 1's schedule is invalid on the workload's 2-CU machine; the
		// workload only reaches device 1 by migrating there after the loss,
		// but the schedule is rejected before the run starts.
		{Devices: 2, Workloads: one,
			DeviceFaults: []fault.Schedule{{}, {Name: "bad-cu", Events: []fault.Event{
				{At: 10_000, Op: fault.CULoss, CU: 7},
			}}},
			Plane: fleet.Schedule{Name: "lose-0", Events: []fleet.Event{{At: 15_000, Kind: fleet.DeviceLoss, Device: 0}}}},
	}
	for i, cfg := range bad {
		if r, err := fleet.Run(cfg); err == nil {
			t.Errorf("bad config %d accepted:\n%s", i, r)
		}
	}
}
