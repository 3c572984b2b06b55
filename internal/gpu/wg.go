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

	// parked holds unscheduled tasks that must wait for the WG to be
	// resident again (response deliveries frozen by preemption, atomics
	// and arms issued while switched out, policy resume actions queued
	// behind a context switch-in); runParked fires them in park order.
	parked []*event.Task
	// queueSeq orders the WG within the pending/ready queues (FIFO within
	// a priority class).
	queueSeq uint64
	// readyWhenSaved marks a WG whose wait condition was met while its
	// context save was still in flight; the save completion promotes it
	// straight to ready.
	readyWhenSaved bool

	// PolicyData is the WG's wait state under the machine's policy, so
	// policies need no side tables: built on the WG's first Wait and reset
	// by each later one, which is why opening an episode allocates
	// nothing. Opaque to the machine.
	PolicyData any

	waiting bool // a wait episode is open (also the breakdown's phase)
	// The open wait episode's operation and start cycle, recorded by
	// beginWait: the policy retries wait.Op through Episode, and deadlock
	// diagnoses name what every blocked WG waits for without asking the
	// policy. Valid while waiting is set.
	wait      WaitOp
	waitBegan event.Cycle
	// The open episode's Table 2 bookkeeping: its variable's and
	// condition's refs in the atomic unit, and the variable's write count
	// when it began.
	charVar, charCond int32
	charStart         uint64
	// metAttempt marks an open episode one of whose attempts has applied
	// with a value meeting its condition: the episode will end when that
	// attempt's response lands. Set at bank-service time, cleared by
	// EndWait; the deadlock proof reads it.
	metAttempt bool
	// applying counts the WG's atomics whose bank-service leg is still on
	// the calendar: a preempted lock holder's release is one.
	applying int

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

// park queues the unscheduled task t to fire when the WG next becomes
// resident.
func (w *WG) park(t *event.Task) { w.parked = append(w.parked, t) }

// WaitOp is one wait episode's operation: the program retries Op(A) on
// Var until the value it returns satisfies Cmp against Want. Backoff marks
// a call site written with software exponential backoff (the SPMBO_*
// benchmarks; prog.Op.Hint).
type WaitOp struct {
	Var     Var
	Op      AtomicOp
	A       int64
	Want    int64
	Cmp     Cmp
	Backoff bool
}

// Episode reports the operation of w's open wait episode, or nil when none
// is open. Policies read it; only the machine writes it.
func (w *WG) Episode() *WaitOp {
	if !w.waiting {
		return nil
	}
	return &w.wait
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
