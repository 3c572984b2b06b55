// Package event is a structural stand-in for awgsim/internal/event: the
// analyzer matches the Engine type by name and package-path suffix, so this
// testdata copy exercises it without importing the real simulator.
package event

// Cycle mirrors event.Cycle.
type Cycle uint64

// TaskFunc mirrors event.TaskFunc.
type TaskFunc func(*Task)

// Task mirrors the pooled event.Task argument slots.
type Task struct {
	Env [4]any
	I   [6]int64
}

// Engine mirrors the scheduling surface of event.Engine.
type Engine struct{}

func (e *Engine) Now() Cycle                 { return 0 }
func (e *Engine) At(at Cycle, fn func())     {}
func (e *Engine) After(d Cycle, fn func())   {}
func (e *Engine) AtTask(at Cycle, t *Task)   {}
func (e *Engine) AfterTask(d Cycle, t *Task) {}
func (e *Engine) NewTask(fn TaskFunc) *Task  { return &Task{} }

// Defer forwards its callback into Engine.At: ipsummary marks fn as a
// scheduling parameter, so capturing literals handed to Defer from hot
// packages are flagged even though event itself is out of scope.
func Defer(e *Engine, fn func()) { e.At(e.Now()+1, fn) }
