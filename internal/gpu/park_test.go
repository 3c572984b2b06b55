package gpu

import (
	"testing"

	"awgsim/internal/event"
)

// idlePolicy leaves every wait episode open, so its WGs wait, resident,
// until the test moves them.
type idlePolicy struct{}

func (idlePolicy) Name() string          { return "idle" }
func (idlePolicy) Attach(*Machine) error { return nil }
func (idlePolicy) Wait(*WG)              {}

// TestParkedTasksFireInParkOrder delivers two tasks to a switched-out WG
// and checks that its switch-in fires them in park order, inside the
// restore's completion event. The first switches the WG out again and
// delivers a third, which the drain must keep for the next switch-in.
func TestParkedTasksFireInParkOrder(t *testing.T) {
	m := newTestMachine(t, testConfig(), stuckKernel(1, 0x7000), idlePolicy{})
	w := m.WGs()[0]
	// runUntil fires events one at a time until done holds.
	runUntil := func(what string, done func() bool) {
		t.Helper()
		for i := 0; !done(); i++ {
			m.eng.SetEventBudget(m.eng.Executed() + 1)
			if i == 10_000 || m.eng.RunUntil(event.Never) != 1 {
				t.Fatalf("%s never happened", what)
			}
		}
	}
	m.Prepare()
	runUntil("the WG's wait", func() bool { return w.Episode() != nil })
	m.SwitchOut(w)
	runUntil("the switch-out", func() bool { return w.State() == StateSwitchedOut })

	var fired []string
	var firedAt []uint64 // engine.Executed() as each task fires
	record := func(name string) {
		fired = append(fired, name)
		firedAt = append(firedAt, m.eng.Executed())
	}
	m.Deliver(w, task(m, func() {
		record("a")
		m.SwitchOut(w)
		m.Deliver(w, task(m, func() { record("c") }))
	}))
	m.Deliver(w, task(m, func() { record("b") }))
	if len(w.parked) != 2 || w.State() != StateReady {
		t.Fatalf("after two deliveries: %d parked, state %s; want 2 parked and ready", len(w.parked), w.State())
	}
	runUntil("the first switch-in", func() bool { return len(fired) > 0 })
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" || firedAt[0] != firedAt[1] {
		t.Fatalf("switch-in fired %v at events %v; want [a b] inside one event", fired, firedAt)
	}
	if len(w.parked) != 1 || w.State() != StateSwitchingOut {
		t.Fatalf("after the drain: %d parked, state %s; want c kept while switching out", len(w.parked), w.State())
	}
	runUntil("the second switch-in", func() bool { return len(fired) > 2 })
	if len(fired) != 3 || fired[2] != "c" || len(w.parked) != 0 || m.Count.SwitchesIn != 2 {
		t.Fatalf("fired %v with %d parked after %d switch-ins; want c fired at the second", fired, len(w.parked), m.Count.SwitchesIn)
	}
}
