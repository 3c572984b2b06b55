package gpu

import (
	"slices"
	"sort"

	"awgsim/internal/event"
	"awgsim/internal/trace"
)

// The machine's context engine: it sequences every WG context save and
// restore (CP firmware latency plus the context-size memory traffic of
// Figure 5) and implements the CU-level preemption of the paper's dynamic
// resource-loss experiment.

// saveOut runs the context-save sequence for a resident WG. The caller has
// already checked residency and decided why the WG leaves; requeueReady
// marks a WG that was preempted while executing (not parked by the policy),
// so it queues ready the instant its save lands.
func (m *Machine) saveOut(w *WG, requeueReady bool) {
	w.state = StateSwitchingOut
	if requeueReady {
		w.readyWhenSaved = true
	}
	m.Count.SwitchesOut++
	m.Trace(w, trace.SwitchOut)
	t := m.wgTask(runSaveTraffic, w)
	t.Env[2] = m.sched.cu(w.cu)
	m.eng.AfterTask(event.Cycle(m.cfg.CPLatency), t)
}

// runSaveTraffic is the CP-firmware leg of a context save: it reserves the
// context-size memory traffic and schedules the completion leg.
func runSaveTraffic(t *event.Task) {
	m := t.Env[0].(*Machine)
	w := t.Env[1].(*WG)
	doneAt := m.mem.ContextTraffic(w.spec.ContextBytes(m.cfg.SIMDWidth))
	t2 := m.wgTask(runSaveDone, w)
	t2.Env[2] = t.Env[2]
	m.eng.AtTask(doneAt, t2)
}

// runSaveDone lands a context save: resources free, the WG is switched out
// (queued ready when it was preempted mid-execution), the dispatcher runs.
func runSaveDone(t *event.Task) {
	m := t.Env[0].(*Machine)
	w := t.Env[1].(*WG)
	cu := t.Env[2].(*computeUnit)
	cu.release(w, m.cfg.SIMDWidth)
	w.state = StateSwitchedOut
	if w.readyWhenSaved {
		w.readyWhenSaved = false
		m.markReady(w)
	}
	m.sched.kick()
}

// SwitchOut context-switches a resident WG out: CP firmware latency plus
// the context-save memory traffic, then the resources free and the
// dispatcher runs. Policies call this for waiting WGs when the machine is
// oversubscribed.
func (m *Machine) SwitchOut(w *WG) {
	if w.state != StateResident {
		return
	}
	m.saveOut(w, false)
}

// switchIn restores a ready WG onto cu: CP latency plus context-restore
// traffic, then parked tasks fire.
func (m *Machine) switchIn(w *WG, cu *computeUnit) {
	cu.host(w, m.cfg.SIMDWidth)
	w.state = StateSwitchingIn
	m.Count.SwitchesIn++
	t := m.wgTask(runRestoreCP, w)
	t.Env[2] = cu
	m.eng.AtTask(m.sched.dispatchSlot(), t)
}

// runRestoreCP fires at the restore's dispatch slot and starts the CP
// firmware latency leg.
func runRestoreCP(t *event.Task) {
	m := t.Env[0].(*Machine)
	t2 := m.wgTask(runRestoreTraffic, t.Env[1].(*WG))
	t2.Env[2] = t.Env[2]
	m.eng.AfterTask(event.Cycle(m.cfg.CPLatency), t2)
}

// runRestoreTraffic reserves the context-restore memory traffic and
// schedules the completion leg.
func runRestoreTraffic(t *event.Task) {
	m := t.Env[0].(*Machine)
	w := t.Env[1].(*WG)
	doneAt := m.mem.ContextTraffic(w.spec.ContextBytes(m.cfg.SIMDWidth))
	t2 := m.wgTask(runRestoreDone, w)
	t2.Env[2] = t.Env[2]
	m.eng.AtTask(doneAt, t2)
}

// runRestoreDone lands a context restore: the WG becomes resident and its
// parked tasks fire — unless its CU was preempted away mid-restore,
// in which case it requeues ready.
func runRestoreDone(t *event.Task) {
	m := t.Env[0].(*Machine)
	w := t.Env[1].(*WG)
	cu := t.Env[2].(*computeUnit)
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
func (m *Machine) markReady(w *WG) {
	switch w.state {
	case StateSwitchedOut:
		w.state = StateReady
		m.sched.enqueueReady(w)
	case StateSwitchingOut:
		w.readyWhenSaved = true
	}
}

// ScheduleCU schedules a CU change at cycle at: the CU's loss, or its
// restore when enable is set. Every scheduled CU change goes through it,
// so the machine knows which restores are still to come; a loss needs no
// count, since a disabled CU hosts nothing and frees no usable slot.
func (m *Machine) ScheduleCU(at event.Cycle, id CUID, enable bool) {
	fn := runCULoss
	if enable {
		m.restoresDue++
		fn = runCURestore
	}
	t := m.eng.NewTask(fn)
	t.Env[0] = m
	t.I[0] = int64(id)
	m.eng.AtTask(at, t)
}

// runCULoss and runCURestore apply the CU change ScheduleCU booked.
func runCULoss(t *event.Task) { t.Env[0].(*Machine).preemptCU(CUID(t.I[0])) }

func runCURestore(t *event.Task) {
	m := t.Env[0].(*Machine)
	m.restoresDue--
	m.restoreCU(CUID(t.I[0]))
}

// preemptCU models the oversubscribed experiment's mid-kernel resource
// loss: the CU is disabled, its L1 dropped, and every resident WG is
// force-preempted (context saved and queued ready, since these WGs were
// executing, not waiting).
func (m *Machine) preemptCU(id CUID) {
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
			m.saveOut(w, true)
		}
	}
	m.sched.kick()
}

// restoreCU re-enables a previously preempted CU — the paper's dynamic
// resource environment in the other direction: "resource availability
// varies across kernel scheduling time slices". Queued ready WGs flow
// back onto it immediately.
func (m *Machine) restoreCU(id CUID) {
	if !m.sched.enableCU(id) {
		return
	}
	m.sched.kick()
}

// Deliver fires the unscheduled task t once w is resident: inside the
// current event if it already is, otherwise t is parked and the WG is
// marked ready so the dispatcher swaps it back in.
func (m *Machine) Deliver(w *WG, t *event.Task) {
	if w.Resident() {
		m.eng.Fire(t)
		return
	}
	w.park(t)
	m.markReady(w)
}
