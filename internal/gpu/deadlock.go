package gpu

// The deadlock proof. The paper's Baseline deadlock is structural:
// resident busy-waiters hold every slot, and the WGs they wait for are
// never dispatched. The watchdog evaluates the proof at each of its ticks
// and ends a proven run there, instead of polling out a whole progress
// window after the last progress. The proof only reads machine state.

// frozen reports whether w is in a wait episode that can never end: no
// attempt of the episode has applied with a value meeting its condition,
// and applying the episode's operation to the word's current value leaves
// the word unchanged and returns a value that fails the condition. A
// failed exchange that would overwrite a different value is not frozen.
func (m *Machine) frozen(w *WG) bool {
	op := w.Episode()
	if op == nil || w.metAttempt {
		return false
	}
	cur := m.mem.Read(op.Var.Addr)
	newVal, ret := op.Op.Apply(cur, op.A, 0)
	return newVal == cur && !op.Cmp.Test(ret, op.Want)
}

// provenDeadlock reports whether no WG can ever progress again. Every
// resident WG must be in a frozen wait, and one of two cases must hold:
//
//   - memory can never change again, under any policy: every unfinished WG
//     is in a frozen wait (so none is pending and no injected kernel is
//     still to launch), and a frozen wait's attempts write nothing;
//   - no WG can ever become resident: the policy never yields a slot, no
//     CU restore or kernel launch is due, no context switch is in flight,
//     and no non-resident WG fits any CU or still has work that could
//     change memory or end its episode — an atomic waiting to apply at its
//     bank, a met attempt whose response is in flight, or a start that
//     has not run yet.
//
// It stops at the first resident WG that is not frozen and allocates
// nothing.
func (m *Machine) provenDeadlock() bool {
	quiet, sealed := true, m.neverYields && m.restoresDue == 0 && m.launchesDue == 0
	for _, w := range m.allWGs {
		if w.finished {
			continue
		}
		if w.Resident() {
			if !m.frozen(w) {
				return false
			}
			continue
		}
		quiet = quiet && m.frozen(w)
		if sealed {
			switch w.state {
			case StateSwitchingOut, StateSwitchingIn:
				sealed = false
			case StatePending:
				sealed = m.sched.pickCU(w) == nil
			default:
				sealed = w.started && w.applying == 0 && !w.metAttempt && m.sched.pickCU(w) == nil
			}
		}
		if !quiet && !sealed {
			return false
		}
	}
	return true
}
