// Package event is a structural stand-in for awgsim/internal/event, matched
// by the analyzer via type name and package-path suffix.
package event

// Cycle mirrors event.Cycle.
type Cycle uint64

// Task mirrors the pooled event.Task.
type Task struct {
	Env [4]any
	I   [6]int64
}

// Engine mirrors the scheduling surface of event.Engine.
type Engine struct{}

func (e *Engine) Now() Cycle                 { return 0 }
func (e *Engine) AtTask(at Cycle, t *Task)   {}
func (e *Engine) AfterTask(d Cycle, t *Task) {}
