package event

// The tests in this package schedule closures through At and After, which
// wrap each in a task whose callee calls it. The model itself schedules
// only named tasks.

// runClosure is the callee of the task At wraps a closure in.
func runClosure(t *Task) { t.Env[0].(func())() }

// At schedules fn to run at absolute cycle at.
func (e *Engine) At(at Cycle, fn func()) {
	t := e.NewTask(runClosure)
	t.Env[0] = fn
	e.AtTask(at, t)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }
