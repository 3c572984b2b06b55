package gpu

import "awgsim/internal/event"

// The hand-written policies and harness events of this package's tests
// keep closures through these adapters, each a task whose callee calls
// the closure; the model itself schedules only named tasks.

func runClosure(t *event.Task) { t.Env[0].(func())() }

func runRespond(t *event.Task) { t.Env[0].(func(int64))(t.I[AtomicRet]) }

// task wraps fn in an unscheduled task, as Deliver takes.
func task(m *Machine, fn func()) *event.Task {
	t := m.eng.NewTask(runClosure)
	t.Env[0] = fn
	return t
}

// respond wraps fn in an atomic's response task: fn is called with the
// op's returned value.
func respond(m *Machine, fn func(ret int64)) *event.Task {
	t := m.eng.NewTask(runRespond)
	t.Env[0] = fn
	return t
}

// at schedules fn at absolute cycle c.
func at(m *Machine, c event.Cycle, fn func()) { m.eng.AtTask(c, task(m, fn)) }

// after schedules fn d cycles from now.
func after(m *Machine, d event.Cycle, fn func()) { at(m, m.eng.Now()+d, fn) }
