package gpu

import (
	"slices"
	"sort"

	"awgsim/internal/event"
	"awgsim/internal/trace"
)

// ctxSwitcher is the machine's context engine: it sequences every WG
// context save and restore (CP firmware latency plus the context-size
// memory traffic of Figure 5) and implements the CU-level preemption of the
// paper's dynamic resource-loss experiment.
type ctxSwitcher struct {
	m *Machine
}

func newCtxSwitcher(m *Machine) *ctxSwitcher { return &ctxSwitcher{m: m} }

// saveOut runs the context-save sequence for a resident WG. The caller has
// already checked residency and decided why the WG leaves; requeueReady
// marks a WG that was preempted while executing (not parked by the policy),
// so it queues ready the instant its save lands.
func (c *ctxSwitcher) saveOut(w *WG, requeueReady bool) {
	m := c.m
	w.state = StateSwitchingOut
	if requeueReady {
		w.readyWhenSaved = true
	}
	m.Count.SwitchesOut++
	m.Trace(w, trace.SwitchOut)
	cu := m.sched.cu(w.cu)
	t := m.eng.NewTask(runSaveTraffic)
	t.Env[0] = c
	t.Env[1] = w
	t.Env[2] = cu
	m.eng.AfterTask(event.Cycle(m.cfg.CPLatency), t)
}

// runSaveTraffic is the CP-firmware leg of a context save: it reserves the
// context-size memory traffic and schedules the completion leg.
func runSaveTraffic(t *event.Task) {
	c := t.Env[0].(*ctxSwitcher)
	w := t.Env[1].(*WG)
	m := c.m
	doneAt := m.mem.ContextTraffic(w.spec.ContextBytes(m.cfg.SIMDWidth))
	t2 := m.eng.NewTask(runSaveDone)
	t2.Env[0] = c
	t2.Env[1] = w
	t2.Env[2] = t.Env[2]
	m.eng.AtTask(doneAt, t2)
}

// runSaveDone lands a context save: resources free, the WG is switched out
// (queued ready when it was preempted mid-execution), the dispatcher runs.
func runSaveDone(t *event.Task) {
	c := t.Env[0].(*ctxSwitcher)
	w := t.Env[1].(*WG)
	cu := t.Env[2].(*computeUnit)
	m := c.m
	cu.release(w, m.cfg.SIMDWidth)
	w.state = StateSwitchedOut
	if w.readyWhenSaved {
		w.readyWhenSaved = false
		c.markReady(w)
	}
	m.sched.kick()
}

// switchOut context-switches a resident WG out: CP firmware latency plus
// the context-save memory traffic, then the resources free and the
// dispatcher runs. Policies call this for waiting WGs when the machine is
// oversubscribed.
func (c *ctxSwitcher) switchOut(w *WG) {
	if w.state != StateResident {
		return
	}
	c.saveOut(w, false)
}

// switchIn restores a ready WG onto cu: CP latency plus context-restore
// traffic, then parked continuations run.
func (c *ctxSwitcher) switchIn(w *WG, cu *computeUnit) {
	m := c.m
	cu.host(w, m.cfg.SIMDWidth)
	w.state = StateSwitchingIn
	m.Count.SwitchesIn++
	at := m.sched.dispatchSlot()
	t := m.eng.NewTask(runRestoreCP)
	t.Env[0] = c
	t.Env[1] = w
	t.Env[2] = cu
	m.eng.AtTask(at, t)
}

// runRestoreCP fires at the restore's dispatch slot and starts the CP
// firmware latency leg.
func runRestoreCP(t *event.Task) {
	c := t.Env[0].(*ctxSwitcher)
	t2 := c.m.eng.NewTask(runRestoreTraffic)
	t2.Env[0] = c
	t2.Env[1] = t.Env[1]
	t2.Env[2] = t.Env[2]
	c.m.eng.AfterTask(event.Cycle(c.m.cfg.CPLatency), t2)
}

// runRestoreTraffic reserves the context-restore memory traffic and
// schedules the completion leg.
func runRestoreTraffic(t *event.Task) {
	c := t.Env[0].(*ctxSwitcher)
	w := t.Env[1].(*WG)
	m := c.m
	doneAt := m.mem.ContextTraffic(w.spec.ContextBytes(m.cfg.SIMDWidth))
	t2 := m.eng.NewTask(runRestoreDone)
	t2.Env[0] = c
	t2.Env[1] = w
	t2.Env[2] = t.Env[2]
	m.eng.AtTask(doneAt, t2)
}

// runRestoreDone lands a context restore: the WG becomes resident and its
// parked continuations run — unless its CU was preempted away mid-restore,
// in which case it requeues ready.
func runRestoreDone(t *event.Task) {
	c := t.Env[0].(*ctxSwitcher)
	w := t.Env[1].(*WG)
	cu := t.Env[2].(*computeUnit)
	m := c.m
	if !cu.enabled {
		cu.release(w, m.cfg.SIMDWidth)
		w.state = StateReady
		m.sched.requeueReady(w)
		return
	}
	w.state = StateResident
	m.progress()
	m.Trace(w, trace.SwitchIn)
	m.runParked(w)
}

// markReady promotes a switched-out WG to the ready queue. Safe to call in
// any state; only switched-out (or switching-out) WGs change state.
func (c *ctxSwitcher) markReady(w *WG) {
	switch w.state {
	case StateSwitchedOut:
		w.state = StateReady
		c.m.sched.enqueueReady(w)
	case StateSwitchingOut:
		w.readyWhenSaved = true
	}
}

// preemptCU models the oversubscribed experiment's mid-kernel resource
// loss: the CU is disabled, its L1 dropped, and every resident WG is
// force-preempted (context saved and queued ready, since these WGs were
// executing, not waiting).
func (c *ctxSwitcher) preemptCU(id CUID) {
	m := c.m
	if !m.sched.disableCU(id) {
		return
	}
	m.mem.InvalidateCU(int(id))
	cu := m.sched.cu(id)
	victims := slices.Clone(cu.resident)
	// Deterministic order.
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, w := range victims {
		w.forcePreempted = true
		if w.state == StateResident {
			c.saveOut(w, true)
		}
	}
	m.sched.kick()
}

// restoreCU re-enables a previously preempted CU — the paper's dynamic
// resource environment in the other direction: "resource availability
// varies across kernel scheduling time slices". Queued ready WGs flow
// back onto it immediately.
func (c *ctxSwitcher) restoreCU(id CUID) {
	if !c.m.sched.enableCU(id) {
		return
	}
	c.m.sched.kick()
}

// deliver runs f once w is resident: immediately if it already is,
// otherwise f is parked and the WG is marked ready so the dispatcher swaps
// it back in.
func (c *ctxSwitcher) deliver(w *WG, f func()) {
	if w.Resident() {
		f()
		return
	}
	w.Park(f)
	c.markReady(w)
}

// SwitchOut context-switches a resident WG out: CP firmware latency plus
// the context-save memory traffic, then the resources free and the
// dispatcher runs. Policies call this for waiting WGs when the machine is
// oversubscribed.
func (m *Machine) SwitchOut(w *WG) { m.ctx.switchOut(w) }

// MarkReady promotes a switched-out WG to the ready queue. Safe to call in
// any state; only switched-out (or switching-out) WGs change state.
func (m *Machine) MarkReady(w *WG) { m.ctx.markReady(w) }

// PreemptCU models the oversubscribed experiment's mid-kernel resource
// loss: the CU is disabled, its L1 dropped, and every resident WG is
// force-preempted (context saved and queued ready, since these WGs were
// executing, not waiting).
func (m *Machine) PreemptCU(id CUID) { m.ctx.preemptCU(id) }

// RestoreCU re-enables a previously preempted CU. Queued ready WGs flow
// back onto it immediately.
func (m *Machine) RestoreCU(id CUID) { m.ctx.restoreCU(id) }

// Deliver runs f once w is resident: immediately if it already is,
// otherwise f is parked and the WG is marked ready so the dispatcher swaps
// it back in.
func (m *Machine) Deliver(w *WG, f func()) { m.ctx.deliver(w, f) }
