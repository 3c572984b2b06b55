package event

// TaskFunc is the callee of a pooled Task. It receives the task so it can
// unpack its argument slots.
type TaskFunc func(*Task)

// Task is a pooled calendar entry, and the only kind the calendar holds: a
// callee plus inline argument slots, replacing a fresh closure on the
// engine's highest-rate paths (CU issue, bank service, wake delivery). Env
// holds pointer-shaped arguments (pointers, funcs — storing those in an
// `any` does not allocate) and I holds integer arguments.
//
// Lifecycle: obtain a task with Engine.NewTask, fill the slots, and hand it
// to AtTask/AfterTask. The engine owns it from that point: after the callee
// returns, the task's Env slots are cleared and it is recycled onto the
// engine's free list, so the callee must not retain it. The I slots of a
// recycled task hold stale values from its previous use — a callee must
// read only the slots its scheduler wrote. A task may be mutated up until it fires —
// the atomic pipeline uses this to deposit a bank result into an
// already-scheduled response task. Scheduling a task that is already
// pending panics.
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

// AtTask schedules t to fire at absolute cycle at. Ordering follows the
// same (timestamp, scheduling order) rule as At.
func (e *Engine) AtTask(at Cycle, t *Task) {
	e.schedule(at, t)
}

// AfterTask schedules t to fire d cycles from now.
func (e *Engine) AfterTask(d Cycle, t *Task) {
	e.schedule(e.now+d, t)
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
