package fault

import (
	"reflect"
	"strings"
	"testing"

	"awgsim/internal/event"
)

func TestRandomDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		a := Random(seed, 8, 10_000, 80_000)
		b := Random(seed, 8, 10_000, 80_000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%+v\n%+v", seed, a, b)
		}
		if len(a.Events) < 1 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if err := a.Validate(8); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
	}
}

// TestRandomShortSpanSpreads pins the degenerate-schedule fix: with
// span < n the old step divisor truncated to 1 and every event landed at
// exactly base, so short fault windows collapsed to a single burst. The
// clamped divisor keeps a 0-or-1 cycle gap per event.
func TestRandomShortSpanSpreads(t *testing.T) {
	// A single seed can still legitimately draw all-zero gaps (each gap is
	// a coin flip once clamped), so the pin is on the population: the old
	// code collapsed every seed; now bursts are the rare case.
	bursts := 0
	for seed := uint64(1); seed <= 16; seed++ {
		s := Random(seed, 8, 1000, 5)
		if err := s.Validate(8); err != nil {
			t.Fatalf("seed %d: short-span schedule invalid: %v", seed, err)
		}
		ats := map[event.Cycle]bool{}
		for _, e := range s.Events {
			if e.At < 1000 || e.At > 1000+event.Cycle(12) {
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
	// Long spans are untouched by the clamp: schedules that already spread
	// keep their exact timestamps (div = span/n + 1 >= 2 either way).
	long := Random(1, 8, 10_000, 80_000)
	if err := long.Validate(8); err != nil {
		t.Fatal(err)
	}
}

// TestRandomWaitListFloor pins the other half of the fix: DegradeSyncMon
// events must never carry WaitList 0 (a monitor with ways but nowhere to
// park a waiter — a geometry the fault plane never means; WaitListSize 0
// is reserved for the uncached-monitor policy variants). Seed 60 drew a
// zero from the old generator.
func TestRandomWaitListFloor(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, e := range Random(seed, 8, 10_000, 80_000).Events {
			if e.Op == DegradeSyncMon && (e.WaitList < 1 || e.Ways < 1) {
				t.Errorf("seed %d: degenerate monitor geometry ways=%d waitlist=%d",
					seed, e.Ways, e.WaitList)
			}
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	a := Random(1, 8, 10_000, 80_000)
	b := Random(2, 8, 10_000, 80_000)
	if reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestScriptedValidate(t *testing.T) {
	for _, s := range Scripted(8, 10_000) {
		if err := s.Validate(8); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if len(s.Events) == 0 {
			t.Errorf("%s: no events", s.Name)
		}
	}
	// The single-CU fallback still yields at least the capacity squeeze.
	one := Scripted(1, 10_000)
	if len(one) == 0 {
		t.Fatal("no single-CU schedules")
	}
	for _, s := range one {
		if err := s.Validate(1); err != nil {
			t.Errorf("single-CU %s: %v", s.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		sched Schedule
	}{
		{"cu out of range", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: CULoss, CU: 8},
		}}},
		{"negative cu", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: CULoss, CU: -1},
		}}},
		{"double loss", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: CULoss, CU: 3},
			{At: 20, Op: CULoss, CU: 3},
		}}},
		{"restore not lost", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: CURestore, CU: 3},
		}}},
		{"all CUs lost", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: CULoss, CU: 0},
			{At: 20, Op: CULoss, CU: 1},
		}}},
		{"unordered", Schedule{Name: "bad", Events: []Event{
			{At: 20, Op: CULoss, CU: 0},
			{At: 10, Op: CURestore, CU: 0},
		}}},
		{"zero ways", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: DegradeSyncMon, Ways: 0, WaitList: 8},
		}}},
		{"negative waitlist", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: DegradeSyncMon, Ways: 1, WaitList: -1},
		}}},
		{"unknown op", Schedule{Name: "bad", Events: []Event{
			{At: 10, Op: Op(99)},
		}}},
		{"cycle 0", Schedule{Name: "bad", Events: []Event{
			{At: 0, Op: CULoss, CU: 0},
		}}},
	}
	for _, c := range cases {
		if err := c.sched.Validate(2); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.sched.Events)
		}
	}
	zero := Schedule{Name: "bad", Events: []Event{{At: 0, Op: DegradeSyncMon, Ways: 1, WaitList: 1}}}
	if err := zero.Validate(2); err == nil || !strings.Contains(err.Error(), "event 0: at cycle 0") {
		t.Errorf("cycle-0 fault: error %v does not name event 0 and its cycle", err)
	}
	if err := (Schedule{}).Validate(0); err == nil {
		t.Error("zero-CU machine accepted")
	}
}

// TestValidateErrorsCarrySeedAndIndex pins the reproducibility contract of
// the error paths: a failing schedule's message alone names the generator
// seed and the offending event index, so a broken sweep cell can be
// regenerated without the sweep's surrounding state.
func TestValidateErrorsCarrySeedAndIndex(t *testing.T) {
	s := Schedule{Name: "rand-42", Seed: 42, Events: []Event{
		{At: 10, Op: CULoss, CU: 0},
		{At: 20, Op: CULoss, CU: 17},
	}}
	err := s.Validate(8)
	if err == nil {
		t.Fatal("out-of-range CU accepted")
	}
	for _, want := range []string{"seed=42", "event 1", "rand-42"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error %q does not mention %q", err, want)
		}
	}
	// Random's schedules carry their seed, so Arm-time errors in a fleet
	// sweep are reproducible from the message alone.
	if r := Random(7, 8, 10_000, 80_000); r.Seed != 7 {
		t.Errorf("Random(7).Seed = %d, want 7", r.Seed)
	}
	// Hand-written schedules stay unchanged: no seed suffix.
	hand := Schedule{Name: "flap", Events: []Event{{At: 10, Op: CURestore, CU: 1}}}
	herr := hand.Validate(8)
	if herr == nil {
		t.Fatal("unpaired restore accepted")
	}
	if strings.Contains(herr.Error(), "seed=") {
		t.Errorf("seedless schedule error %q mentions a seed", herr)
	}
	if !strings.Contains(herr.Error(), "event 0") {
		t.Errorf("error %q does not name the event index", herr)
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		CULoss: "cu-loss", CURestore: "cu-restore",
		DegradeSyncMon: "degrade-syncmon", JitterCP: "jitter-cp",
		Op(99): "?",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
	s := Schedule{Name: "flap", Events: make([]Event, 3)}
	if got := s.String(); got != "flap(3 events)" {
		t.Errorf("Schedule.String() = %q", got)
	}
}

func TestProvidesIFP(t *testing.T) {
	for pol, want := range map[string]bool{
		"Baseline":   false,
		"Sleep":      false,
		"Sleep-16k":  false,
		"Timeout":    true,
		"Timeout-1m": true,
		"MonR":       true,
		"MonNR-All":  true,
		"MonNR-One":  true,
		"AWG":        true,
	} {
		if got := ProvidesIFP(pol); got != want {
			t.Errorf("ProvidesIFP(%q) = %v, want %v", pol, got, want)
		}
	}
}
