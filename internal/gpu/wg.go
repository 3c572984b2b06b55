package gpu

import (
	"fmt"

	"awgsim/internal/event"
)

// WG is one work-group's runtime state, owned by the machine.
type WG struct {
	id    WGID
	spec  *KernelSpec
	kr    *kernelRun
	home  int // home scheduling group (initial CU)
	inGrp int // rank within the group
	grpSz int

	state WGState
	cu    CUID

	// frame is the interpreter's resumable position in the kernel program,
	// built when the WG first starts (nil while pending).
	frame *irFrame

	// parked holds continuations that must wait for the WG to be resident
	// again (response deliveries frozen by preemption, policy resume
	// actions queued behind a context switch-in).
	parked []func()
	// queueSeq orders the WG within the pending/ready queues (FIFO within
	// a priority class).
	queueSeq uint64
	// readyWhenSaved marks a WG whose wait condition was met while its
	// context save was still in flight; the save completion promotes it
	// straight to ready.
	readyWhenSaved bool

	// Policy scratch: the active wait episode's bookkeeping lives here so
	// policies don't need side tables. Opaque to the machine.
	PolicyData any

	waiting bool // currently inside a wait episode (for breakdown)
	// The active wait episode's condition, recorded when the wait op issues so
	// deadlock diagnoses can name what every blocked WG is waiting for
	// without asking the policy. Valid while waiting is set.
	waitVar   Var
	waitWant  int64
	waitCmp   Cmp
	waitBegan event.Cycle

	stalled        bool // parked without issuing instructions (frees issue slots)
	phaseStart     event.Cycle
	runningCycles  uint64
	waitingCycles  uint64
	started        bool
	finished       bool
	forcePreempted bool
}

// ID reports the dispatcher-assigned work-group ID.
func (w *WG) ID() WGID { return w.id }

// State reports the scheduling state.
func (w *WG) State() WGState { return w.state }

// CU reports the current CU, or NoCU.
func (w *WG) CU() CUID { return w.cu }

// Home reports the WG's home scheduling group.
func (w *WG) Home() int { return w.home }

// Resident reports whether the WG currently holds CU resources.
func (w *WG) Resident() bool { return w.state == StateResident }

// Spec reports the kernel this WG belongs to.
func (w *WG) Spec() *KernelSpec { return w.spec }

// Park queues f to run when the WG next becomes resident.
func (w *WG) Park(f func()) { w.parked = append(w.parked, f) }

// Stalled reports whether the WG is parked without issuing instructions.
func (w *WG) Stalled() bool { return w.stalled }

// WaitingOn reports the condition of the WG's active wait episode, and
// whether one is active at all.
func (w *WG) WaitingOn() (v Var, want int64, cmp Cmp, ok bool) {
	if !w.waiting {
		return Var{}, 0, 0, false
	}
	return w.waitVar, w.waitWant, w.waitCmp, true
}

func (w *WG) String() string {
	return fmt.Sprintf("WG%d[%s@cu%d]", w.id, w.state, w.cu)
}

// flushPhase charges the interval since the last phase change to the
// current phase.
func (w *WG) flushPhase(now event.Cycle) {
	d := uint64(now - w.phaseStart)
	if w.waiting {
		w.waitingCycles += d
	} else {
		w.runningCycles += d
	}
	w.phaseStart = now
}

// setPhase moves the WG between running and waiting attribution, charging
// the elapsed interval to the phase just ended.
func (w *WG) setPhase(now event.Cycle, waiting bool) {
	if w.waiting == waiting {
		return
	}
	w.flushPhase(now)
	w.waiting = waiting
}

// closePhase charges the final interval when the WG finishes or the
// simulation ends.
func (w *WG) closePhase(now event.Cycle) {
	if !w.started || w.finished {
		return
	}
	w.flushPhase(now)
}
