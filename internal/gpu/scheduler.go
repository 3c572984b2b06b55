package gpu

import "awgsim/internal/event"

// scheduler is the machine's dispatcher: it owns the CU resource pools, the
// two WG queues (never-started pending WGs and switched-out ready WGs) and
// the dispatcher serialization slot, and places WGs onto CUs whenever
// resources free up. It asks the context engine to restore ready WGs and
// the machine to launch never-started ones.
type scheduler struct {
	m   *Machine
	cus []*computeUnit

	pending    []*WG // never-started WGs, in dispatch order
	readyQueue []*WG // switched-out WGs whose conditions are met
	queueSeq   uint64
	dispFree   event.Cycle
	kickQueued bool
	kickFn     func() // reusable kick continuation (kick fires constantly)
}

func newScheduler(m *Machine) *scheduler {
	s := &scheduler{m: m, cus: make([]*computeUnit, m.cfg.NumCUs)}
	for i := range s.cus {
		s.cus[i] = newComputeUnit(CUID(i), m.cfg)
	}
	s.kickFn = func() {
		s.kickQueued = false
		s.dispatchPass()
	}
	return s
}

// cu resolves a CU by id.
func (s *scheduler) cu(id CUID) *computeUnit { return s.cus[id] }

// enqueuePending inserts WGs into the pending queue in priority order
// (stable: earlier kernels first within a priority).
func (s *scheduler) enqueuePending(wgs []*WG) {
	for _, w := range wgs {
		s.queueSeq++
		w.queueSeq = s.queueSeq
	}
	s.pending = append(s.pending, wgs...)
	sortWGQueue(s.pending)
}

// enqueueReady appends a ready WG with a fresh arrival sequence and runs the
// dispatcher. The fresh sequence is what lets never-dispatched pending WGs
// eventually outrank ready-queue churners (see dispatchPass).
func (s *scheduler) enqueueReady(w *WG) {
	s.queueSeq++
	w.queueSeq = s.queueSeq
	s.readyQueue = append(s.readyQueue, w)
	sortWGQueue(s.readyQueue)
	s.kick()
}

// requeueReady re-appends a WG whose restore was revoked mid-flight; it
// keeps its sequence number (it never got to run).
func (s *scheduler) requeueReady(w *WG) {
	s.readyQueue = append(s.readyQueue, w)
	s.kick()
}

// oversubscribed reports whether other WGs are waiting for execution
// resources — the paper's condition for context switching a waiting WG out.
func (s *scheduler) oversubscribed() bool {
	return len(s.pending) > 0 || len(s.readyQueue) > 0
}

// queueLens reports the queue occupancies for deadlock diagnoses.
func (s *scheduler) queueLens() (pending, ready int) {
	return len(s.pending), len(s.readyQueue)
}

// sortWGQueue orders a queue by (priority desc, arrival seq asc): higher
// priority kernels jump ahead, but within a priority the queue stays FIFO
// — anything else starves FIFO synchronization primitives (a ticket
// holder re-queued behind perpetually re-trying lower-id WGs would never
// get a slot).
func sortWGQueue(q []*WG) {
	for i := 1; i < len(q); i++ {
		for j := i; j > 0; j-- {
			a, b := q[j-1], q[j]
			if b.kr.priority > a.kr.priority || (b.kr.priority == a.kr.priority && b.queueSeq < a.queueSeq) {
				q[j-1], q[j] = b, a
			} else {
				break
			}
		}
	}
}

// evictForRoom force-preempts resident lower-priority WGs until kr's WGs
// all fit (waiting/stalled victims first — they were not making progress
// anyway — then running ones).
func (s *scheduler) evictForRoom(kr *kernelRun) {
	need := 0
	for _, w := range kr.wgs {
		if w.state == StatePending {
			need++
		}
	}
	free := 0
	for _, cu := range s.cus {
		if cu.enabled {
			f := cu.wgSlots
			if wf := cu.wfSlots / kr.spec.Wavefronts(s.m.cfg.SIMDWidth); wf < f {
				f = wf
			}
			free += f
		}
	}
	deficit := need - free
	if deficit <= 0 {
		return
	}
	// Victim selection: lower priority only; stalled before running;
	// deterministic by WG id.
	var victims []*WG
	pass := func(wantStalled bool) {
		for _, w := range s.m.allWGs {
			if deficit <= len(victims) {
				return
			}
			if w.state != StateResident || w.kr == kr || w.kr.priority >= kr.priority {
				continue
			}
			if w.stalled != wantStalled {
				continue
			}
			victims = append(victims, w)
		}
	}
	pass(true)
	pass(false)
	for _, w := range victims {
		s.forceEvict(w)
	}
}

// forceEvict context switches a resident WG out on behalf of the
// kernel-level scheduler; the WG requeues ready (it was not waiting on
// the policy's say-so, so it wants its resources back).
func (s *scheduler) forceEvict(w *WG) {
	if w.state != StateResident {
		return
	}
	w.forcePreempted = true
	s.m.ctx.saveOut(w, true)
}

// disableCU takes a CU out of placement, reporting whether it was enabled.
func (s *scheduler) disableCU(id CUID) bool {
	cu := s.cus[id]
	if !cu.enabled {
		return false
	}
	cu.enabled = false
	return true
}

// enableCU returns a CU to placement, reporting whether it was disabled.
func (s *scheduler) enableCU(id CUID) bool {
	cu := s.cus[id]
	if cu.enabled {
		return false
	}
	cu.enabled = true
	return true
}

// enabledCUs reports how many CUs are still enabled.
func (s *scheduler) enabledCUs() int {
	n := 0
	for _, cu := range s.cus {
		if cu.enabled {
			n++
		}
	}
	return n
}

// kick schedules one dispatcher pass (coalescing repeated requests within
// an event).
func (s *scheduler) kick() {
	if s.kickQueued {
		return
	}
	s.kickQueued = true
	// Same-cycle continuation, stated explicitly: the dispatcher pass runs
	// after the current event completes but before the clock advances.
	s.m.eng.At(s.m.eng.Now(), s.kickFn)
}

// pickCU chooses a CU for w, preferring its home group for local-scope
// affinity.
func (s *scheduler) pickCU(w *WG) *computeUnit {
	if home := s.cus[w.home]; home.canHost(w.spec, s.m.cfg.SIMDWidth) {
		return home
	}
	for _, cu := range s.cus {
		if cu.canHost(w.spec, s.m.cfg.SIMDWidth) {
			return cu
		}
	}
	return nil
}

// dispatchPass places ready WGs first (they are older and hold conditions
// already met), then never-started pending WGs, until resources run out.
func (s *scheduler) dispatchPass() {
	for {
		// Pick across the two queues by (priority, then global arrival
		// sequence). A re-readied WG takes a fresh sequence number each
		// time it re-enters the ready queue, so a never-dispatched pending
		// WG eventually outranks the churners — without this, a barrier
		// kernel that oversubscribes the launch livelocks: the resident
		// waiters cycle through the ready queue forever while the WGs they
		// are waiting for starve in pending.
		var w *WG
		fromReady := false
		if len(s.readyQueue) > 0 {
			w = s.readyQueue[0]
			fromReady = true
		}
		if len(s.pending) > 0 {
			p := s.pending[0]
			if w == nil || p.kr.priority > w.kr.priority ||
				(p.kr.priority == w.kr.priority && p.queueSeq < w.queueSeq) {
				w = p
				fromReady = false
			}
		}
		if w == nil {
			return
		}
		cu := s.pickCU(w)
		if cu == nil {
			// The preferred head does not fit; try the other queue's head
			// once (shapes differ across kernels), then give up.
			var alt *WG
			if fromReady && len(s.pending) > 0 {
				alt = s.pending[0]
			} else if !fromReady && len(s.readyQueue) > 0 {
				alt = s.readyQueue[0]
			}
			if alt == nil {
				return
			}
			if cu = s.pickCU(alt); cu == nil {
				return
			}
			w, fromReady = alt, !fromReady
		}
		if fromReady {
			s.readyQueue = s.readyQueue[1:]
			s.m.ctx.switchIn(w, cu)
		} else {
			s.pending = s.pending[1:]
			s.m.start(w, cu)
		}
	}
}

// dispatchSlot serializes dispatcher actions.
func (s *scheduler) dispatchSlot() event.Cycle {
	at := s.m.eng.Now()
	if s.dispFree > at {
		at = s.dispFree
	}
	s.dispFree = at + event.Cycle(s.m.cfg.DispatchLatency)
	return s.dispFree
}

// issueFactor models SIMD issue-slot sharing on w's CU: compute throughput
// divides among the wavefronts of the resident WGs that are actively
// issuing (a 4-wavefront WG takes four slots' worth of issue bandwidth).
func (s *scheduler) issueFactor(w *WG) event.Cycle {
	if !w.Resident() {
		return 1
	}
	executing := 0
	for _, r := range s.cus[w.cu].resident {
		if !r.stalled && r.state == StateResident {
			executing += r.spec.Wavefronts(s.m.cfg.SIMDWidth)
		}
	}
	f := (executing + s.m.cfg.SIMDsPerCU - 1) / s.m.cfg.SIMDsPerCU
	if f < 1 {
		f = 1
	}
	return event.Cycle(f)
}

// Oversubscribed reports whether other WGs are waiting for execution
// resources — the paper's condition for context switching a waiting WG out
// ("only if there are other WGs ready to be resumed or started").
func (m *Machine) Oversubscribed() bool { return m.sched.oversubscribed() }

// EnabledCUs reports how many CUs are still enabled.
func (m *Machine) EnabledCUs() int { return m.sched.enabledCUs() }
