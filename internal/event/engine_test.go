package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyEngine(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("fresh engine at cycle %d, want 0", e.Now())
	}
	if step(e) {
		t.Fatal("a single step on an empty calendar fired an event")
	}
	if got := e.Run(); got != 0 {
		t.Fatalf("Run on empty calendar fired %d events", got)
	}
	if at := e.nextAt(); at != Never {
		t.Fatalf("next event at %d, want Never", at)
	}
}

func TestTimestampOrder(t *testing.T) {
	e := New()
	var fired []Cycle
	for _, at := range []Cycle{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %d after run, want 50", e.Now())
	}
}

func TestFIFOWithinSameCycle(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of scheduling order at %d: %v", i, order[:i+1])
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	e := New()
	var at Cycle
	e.At(100, func() {
		e.After(25, func() { at = e.Now() })
	})
	e.Run()
	if at != 125 {
		t.Fatalf("After(25) from cycle 100 fired at %d, want 125", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Cycle
	for _, at := range []Cycle{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(25)
	if n != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", n)
	}
	if e.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", e.Pending())
	}
	if at := e.nextAt(); at != 30 {
		t.Fatalf("next event at %d, want 30", at)
	}
	// Resuming picks up where we left off.
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("%d pending after Stop, want 7", e.Pending())
	}
}

// TestSchedulingPendingTaskPanics checks that a task on the calendar, or
// firing, cannot be scheduled again: the second link would splice two
// bucket lists together, and the task would fire after its release.
func TestSchedulingPendingTaskPanics(t *testing.T) {
	mustPanic := func(t *testing.T, what string, schedule func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		schedule()
	}
	for _, first := range []Cycle{10, 3 * nearSize, 2 * farSpan} {
		for _, second := range []Cycle{10, 20, 5 * nearSize, 3 * farSpan} {
			e := New()
			fired := 0
			tk := e.NewTask(func(*Task) { fired++ })
			e.AtTask(first, tk)
			mustPanic(t, fmt.Sprintf("rescheduling a task pending at %d for %d", first, second), func() {
				e.AtTask(second, tk)
			})
			if got := e.Run(); got != 1 || fired != 1 || e.Now() != first {
				t.Fatalf("task pending at %d: %d events fired (callee ran %d times), clock at %d; want 1 at %d",
					first, got, fired, e.Now(), first)
			}
		}
	}

	e := New()
	var self TaskFunc
	self = func(tk *Task) {
		mustPanic(t, "a callee rescheduling its own task", func() { e.AfterTask(5, tk) })
	}
	e.AfterTask(1, e.NewTask(self))
	if got := e.Run(); got != 1 || e.Pending() != 0 {
		t.Fatalf("self-rescheduling task: %d fired, %d pending; want 1 and 0", got, e.Pending())
	}
	// Released, the task may be scheduled again.
	tk := e.NewTask(func(*Task) {})
	e.AfterTask(1, tk)
	if got := e.Run(); got != 1 {
		t.Fatalf("a released task, scheduled again, fired %d times", got)
	}
}

// TestFireRunsTaskInline checks Fire on an unscheduled task inside an
// event: the callee runs at once and reads the slots its caller wrote; it
// counts no event and takes no seq, so tasks scheduled before, inside and
// after it fire in that order and number the events as if its body had
// run inline; and the task returns to the free list, released. Firing a
// pending task, or scheduling a task from its own Fire, panics.
func TestFireRunsTaskInline(t *testing.T) {
	e := New()
	var order []int64
	record := func(tk *Task) { order = append(order, tk.I[0]) }
	mk := func(i int64) *Task {
		tk := e.NewTask(record)
		tk.I[0] = i
		return tk
	}
	var fired *Task
	var env any
	var executed [2]uint64
	e.AtTask(5, e.NewTask(func(*Task) {
		e.AtTask(e.Now(), mk(1))
		fired = e.NewTask(func(tk *Task) {
			env = tk.Env[1]
			record(tk)
			e.AtTask(e.Now(), mk(2))
		})
		fired.Env[1] = "slot"
		fired.I[0] = 10
		executed[0] = e.Executed()
		e.Fire(fired)
		executed[1] = e.Executed()
		e.AtTask(e.Now(), mk(3))
	}))
	if n := e.Run(); n != 4 {
		t.Fatalf("run fired %d events, want 4: Fire must not count one", n)
	}
	if want := []int64{10, 1, 2, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if env != "slot" || executed[0] != executed[1] || e.seq != 4 {
		t.Fatalf("callee saw Env[1]=%v; Executed %d → %d across Fire; %d seqs taken; want slot, equal, 4",
			env, executed[0], executed[1], e.seq)
	}
	found := false
	for tk := e.free; tk != nil; tk = tk.next {
		found = found || tk == fired
	}
	if !found || fired.fn != nil || fired.seq != 0 || fired.Env[1] != nil {
		t.Fatalf("fired task on the free list %t, released %t", found, fired.fn == nil && fired.seq == 0 && fired.Env[1] == nil)
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	pending := e.NewTask(record)
	e.AfterTask(1, pending)
	mustPanic("firing a pending task", func() { e.Fire(pending) })
	var self *Task
	self = e.NewTask(func(*Task) {
		mustPanic("scheduling a task from its own Fire", func() { e.AfterTask(1, self) })
	})
	e.Fire(self)
}

func TestCascadedEvents(t *testing.T) {
	// An event chain where each event schedules the next must advance the
	// clock monotonically and fire every link.
	e := New()
	const links = 1000
	count := 0
	var step func()
	step = func() {
		count++
		if count < links {
			e.After(3, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != links {
		t.Fatalf("chain fired %d links, want %d", count, links)
	}
	if e.Now() != Cycle(3*(links-1)) {
		t.Fatalf("clock at %d, want %d", e.Now(), 3*(links-1))
	}
}

// TestOrderingProperty checks, over random schedules, that events always
// fire sorted by (timestamp, insertion order).
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		e := New()
		type stamp struct {
			at  Cycle
			seq int
		}
		var fired []stamp
		for i := 0; i < n; i++ {
			at := Cycle(rng.Intn(64))
			i := i
			e.At(at, func() { fired = append(fired, stamp{at, i}) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				return false
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Cycle {
		e := New()
		rng := rand.New(rand.NewSource(42))
		var trace []Cycle
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth > 0 {
				e.After(Cycle(rng.Intn(10)+1), func() { spawn(depth - 1) })
				e.After(Cycle(rng.Intn(10)+1), func() { spawn(depth - 1) })
			}
		}
		e.At(0, func() { spawn(6) })
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	nop := func(*Task) {}
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1024; j++ {
			e.AtTask(Cycle(j%97), e.NewTask(nop))
		}
		e.Run()
	}
}
