// Package gpu seeds hot-path scheduling sites: its package-path suffix
// puts it in the analyzer's scope, and the event stand-in's Engine matches
// the scheduling-method signatures.
package gpu

import "awgsim/internal/lint/analyzers/hotpathalloc/testdata/src/event"

type machine struct {
	eng *event.Engine
	n   int
}

func (m *machine) perEventClosures(w int) {
	m.eng.After(3, func() { m.n += w }) // want `capturing closure \(m, w\) scheduled via Engine\.After`
	m.eng.At(1, func() { m.n++ })       // want `capturing closure \(m\) scheduled via Engine\.At`
}

func (m *machine) sanctioned() {
	m.eng.At(1, func() { println("static") }) // non-capturing literal: allocated once

	hoisted := func() { m.n++ } // built once per episode, identifier at the call site
	m.eng.After(2, hoisted)

	t := m.eng.NewTask(runStep) // pooled task with a top-level callee
	t.Env[0] = m
	m.eng.AfterTask(4, t)
}

func (m *machine) capturingTaskFunc() {
	m.eng.NewTask(func(t *event.Task) { m.n++ }) // want `capturing closure \(m\) scheduled via Engine\.NewTask`
}

// watchdog mirrors the machine's deadlock-watchdog arming: the tick
// closure is built once at Prepare and rescheduled by identifier, so only
// the naive per-tick literal is a finding.
func (m *machine) watchdog(every event.Cycle) {
	var tick func()
	tick = func() {
		m.eng.After(every, tick) // identifier at the call site: hoisted once
		m.n++                    // stand-in for the progress check
	}
	m.eng.After(every, tick)
}

func (m *machine) watchdogNaive(every event.Cycle) {
	m.eng.After(every, func() { // want `capturing closure \(m, every\) scheduled via Engine\.After`
		m.watchdogNaive(every) // reschedules by allocating a fresh closure per tick
	})
}

func runStep(t *event.Task) { t.Env[0].(*machine).n++ }

// atLater forwards its callback into Engine.At; ipsummary marks fn as a
// scheduling parameter.
func (m *machine) atLater(d event.Cycle, fn func()) {
	m.eng.At(m.eng.Now()+d, fn)
}

// armLater hops through atLater — the in-component fixpoint must propagate
// the scheduling-parameter mark one level further.
func (m *machine) armLater(fn func()) { m.atLater(7, fn) }

func (m *machine) forwarded(w int) {
	m.eng.At(0, func() { m.n += w }) // want `capturing closure \(m, w\) scheduled via Engine\.At`

	m.atLater(2, func() { m.n++ })  // want `capturing closure \(m\) forwarded to atLater which schedules it on the engine`
	m.armLater(func() { m.n += w }) // want `capturing closure \(m, w\) forwarded to armLater which schedules it on the engine`

	// Cross-package forwarder: event.Defer's summary arrives via the fact.
	event.Defer(m.eng, func() { m.n++ }) // want `capturing closure \(m\) forwarded to Defer which schedules it on the engine`

	m.atLater(3, func() { println("static") }) // non-capturing: fine through forwarders too

	hoisted := func() { m.n++ }
	m.armLater(hoisted) // identifier at the call site: hoisted once per episode
}
