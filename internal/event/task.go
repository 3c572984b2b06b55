package event

import "fmt"

// TaskFunc is the callee of a pooled Task. It receives the task so it can
// unpack its argument slots.
type TaskFunc func(*Task)

// Task is a pooled unit of scheduled work, and the only kind the engine
// runs: a named callee plus inline argument slots, so no event allocates a
// closure. Env holds pointer-shaped arguments (pointers and interfaces
// holding them — storing those in an `any` does not allocate) and I holds
// integer arguments.
//
// Lifecycle: obtain a task with Engine.NewTask and fill the slots. Then
// either hand it to AtTask/AfterTask, which put it on the calendar, or
// keep it unscheduled and pass it to Fire later (a WG's parked
// continuations are such tasks). The engine owns it from that point:
// after the callee returns, the task's Env slots are cleared and it is
// recycled onto the engine's free list, so the callee must not retain it.
// The I slots of a recycled task hold stale values from its previous use —
// a callee must read only the slots its scheduler wrote. A task may be
// mutated up until it fires — the atomic pipeline uses this to deposit a
// bank result into an already-scheduled response task. Scheduling or
// firing a task that is already pending panics.
type Task struct {
	fn   TaskFunc
	next *Task // calendar bucket list while pending, free list once released
	at   Cycle
	seq  uint64 // non-zero exactly while the task is pending or firing

	Env [4]any
	I   [6]int64
}

// NewTask returns a task from the engine's free list (or a fresh one) with
// its callee set and Env slots nil; see the Task lifecycle note about I.
func (e *Engine) NewTask(fn TaskFunc) *Task {
	t := e.free
	if t == nil {
		t = &Task{}
	} else {
		e.free = t.next
		t.next = nil
	}
	t.fn = fn
	return t
}

// AtTask schedules t to fire at absolute cycle at. Tasks that share a
// cycle fire in the order they were scheduled.
func (e *Engine) AtTask(at Cycle, t *Task) {
	e.schedule(at, t)
}

// AfterTask schedules t to fire d cycles from now.
func (e *Engine) AfterTask(d Cycle, t *Task) {
	e.schedule(e.now+d, t)
}

// Fire runs the unscheduled task t now, inside the current event, and
// recycles it. It takes no seq and counts no event, so the calendar's
// order and Executed are what they would be had the callee's body run
// inline; a continuation that must run inside the event that releases it
// (a WG's parked work at switch-in) goes through here. Firing a pending
// task, or scheduling t from its own callee, panics.
func (e *Engine) Fire(t *Task) {
	if t.seq != 0 {
		panic(fmt.Sprintf("event: firing a task pending at cycle %d", t.at))
	}
	t.seq = ^uint64(0) // firing
	t.fn(t)
	e.releaseTask(t)
}

// releaseTask drops a fired or discarded task's Env references, so a pooled
// task pins nothing for the GC, clears its seq, and returns it to the free
// list. The I slots are left stale: callees read only the integer slots
// their scheduler wrote, so clearing 48 bytes per fire bought nothing.
func (e *Engine) releaseTask(t *Task) {
	t.fn = nil
	t.seq = 0
	t.Env = [4]any{}
	t.next = e.free
	e.free = t
}
