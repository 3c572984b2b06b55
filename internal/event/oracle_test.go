package event

import (
	"container/heap"
	"fmt"
	"testing"
)

// oracleEngine is the pre-overhaul calendar — a container/heap of closures —
// kept as the reference model. The determinism regression replays
// randomized schedules against it: the wheel+heap engine must reproduce its
// firing order exactly, including same-cycle seq ties.
type oracleEngine struct {
	now       Cycle
	seq       uint64
	events    oracleHeap
	executed  uint64
	stopped   bool
	budget    uint64
	budgetHit bool
}

type oracleScheduled struct {
	at  Cycle
	seq uint64
	fn  func()
}

type oracleHeap []oracleScheduled

func (h oracleHeap) Len() int { return len(h) }

func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *oracleHeap) Push(x any) { *h = append(*h, x.(oracleScheduled)) }

func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = oracleScheduled{}
	*h = old[:n-1]
	return ev
}

func newOracle() *oracleEngine { return &oracleEngine{} }

func (e *oracleEngine) Now() Cycle              { return e.now }
func (e *oracleEngine) Executed() uint64        { return e.executed }
func (e *oracleEngine) Pending() int            { return len(e.events) }
func (e *oracleEngine) Stop()                   { e.stopped = true }
func (e *oracleEngine) SetEventBudget(n uint64) { e.budget = n }
func (e *oracleEngine) BudgetExhausted() bool   { return e.budgetHit }

func (e *oracleEngine) At(at Cycle, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at cycle %d before now %d", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, oracleScheduled{at: at, seq: e.seq, fn: fn})
}

func (e *oracleEngine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

func (e *oracleEngine) RunUntil(limit Cycle) uint64 {
	e.stopped = false
	start := e.executed
	for !e.stopped && len(e.events) > 0 {
		if e.events[0].at > limit {
			break
		}
		if e.budget != 0 && e.executed >= e.budget {
			e.budgetHit = true
			break
		}
		ev := heap.Pop(&e.events).(oracleScheduled)
		e.now = ev.at
		e.executed++
		ev.fn()
	}
	return e.executed - start
}

func (e *oracleEngine) Run() uint64 { return e.RunUntil(Never) }

func (e *oracleEngine) nextAt() Cycle {
	if len(e.events) == 0 {
		return Never
	}
	return e.events[0].at
}

// nextAt reports the cycle of the earliest pending event, or Never when
// the calendar is empty. Locating the wheel's head may pour far buckets,
// as firing would.
func (e *Engine) nextAt() Cycle {
	at := Never
	if b := e.wheelHead(); b != nil {
		at = b.head.at
	}
	if len(e.heap) > 0 && e.heap[0].at < at {
		at = e.heap[0].at
	}
	return at
}

// calendar is the surface both implementations share; the workload driver
// runs against it.
type calendar interface {
	Now() Cycle
	Executed() uint64
	Pending() int
	At(Cycle, func())
	After(Cycle, func())
	RunUntil(Cycle) uint64
	Run() uint64
	Stop()
	SetEventBudget(uint64)
	BudgetExhausted() bool
	nextAt() Cycle
}

var (
	_ calendar = (*Engine)(nil)
	_ calendar = (*oracleEngine)(nil)
)

// step fires c's earliest event alone, through a one-event budget, and
// reports whether one fired.
func step(c calendar) bool {
	c.SetEventBudget(c.Executed() + 1)
	n := c.RunUntil(Never)
	c.SetEventBudget(0)
	return n == 1
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// farSpan is the far wheel's reach in cycles. From a clock inside the near
// window, a delay below nearSize lands on the near wheel, one in
// [nearSize, farSpan) on the far wheel, and one of farSpan+nearSize or more
// on the overflow heap.
const farSpan = farSize * nearSize

// randDelta draws a delay spanning every calendar region: same-cycle, the
// near wheel, the far wheel, and the overflow heap. One far class draws
// from four whole-window delays, so events scheduled from one cycle share
// far buckets and cycles, and a pour must keep their order.
func randDelta(rng *uint64) Cycle {
	switch splitmix(rng) % 10 {
	case 0:
		return 0
	case 1, 2, 3:
		return Cycle(splitmix(rng) % nearSize)
	case 4:
		return Cycle(nearSize * (1 + splitmix(rng)%4))
	case 5, 6, 7:
		return Cycle(nearSize + splitmix(rng)%(farSpan-nearSize))
	case 8:
		return Cycle(farSpan + nearSize + splitmix(rng)%(2*farSpan))
	default:
		return Cycle(splitmix(rng) % 16)
	}
}

type firing struct {
	at Cycle
	id uint64
}

// runWorkload drives c through a seed-derived schedule of At/After/step/
// RunUntil/Stop/budget operations — including events that schedule children
// and segments that leave the near window ahead of the clock (exercising
// the below-base heap path) — and returns the exact firing trace.
func runWorkload(c calendar, seed uint64) []firing {
	rng := seed
	var trace []firing
	var nextID uint64

	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		d := randDelta(&rng)
		body := func() {
			trace = append(trace, firing{c.Now(), id})
			// Children reseed from the id so both engines make identical
			// decisions regardless of host state.
			crng := seed ^ (id+1)*0x9e3779b97f4a7c15
			n := splitmix(&crng) % 3
			for i := uint64(0); i < n && depth > 0; i++ {
				cid := nextID
				nextID++
				cd := randDelta(&crng)
				cbody := func() { trace = append(trace, firing{c.Now(), cid}) }
				if splitmix(&crng)%2 == 0 {
					c.After(cd, cbody)
				} else {
					c.At(c.Now()+cd, cbody)
				}
			}
			if depth > 0 && splitmix(&crng)%16 == 0 {
				c.Stop()
			}
		}
		if splitmix(&rng)%2 == 0 {
			c.After(d, body)
		} else {
			c.At(c.Now()+d, body)
		}
	}

	for round := 0; round < 40; round++ {
		for i := uint64(0); i < splitmix(&rng)%8; i++ {
			schedule(1)
		}
		switch splitmix(&rng) % 6 {
		case 0:
			step(c)
		case 1:
			c.SetEventBudget(c.Executed() + splitmix(&rng)%64 + 1)
			c.RunUntil(c.Now() + Cycle(splitmix(&rng)%200_000))
			c.SetEventBudget(0)
		default:
			c.RunUntil(c.Now() + Cycle(splitmix(&rng)%200_000))
		}
		trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
		if at := c.nextAt(); at != Never {
			trace = append(trace, firing{at, ^uint64(0) - 1})
		}
	}
	c.Run()
	trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
	return trace
}

// Calendar regions, as regionTally classifies each schedule.
const (
	regionNear = iota
	regionFar
	regionOverflow
	regionBelowBase
	numRegions
)

var regionNames = [numRegions]string{"near wheel", "far wheel", "overflow heap", "below-base heap"}

// regionTally is an Engine that counts the calendar region each schedule
// landed in, read off the structure that took the task.
type regionTally struct {
	*Engine
	n [numRegions]int
}

func (r *regionTally) At(at Cycle, fn func()) {
	near, far := r.nearCnt, r.farCnt
	r.Engine.At(at, fn)
	switch {
	case r.nearCnt > near:
		r.n[regionNear]++
	case r.farCnt > far:
		r.n[regionFar]++
	case at < r.nearBase:
		r.n[regionBelowBase]++
	default:
		r.n[regionOverflow]++
	}
}

func (r *regionTally) After(d Cycle, fn func()) { r.At(r.Now()+d, fn) }

// TestCalendarMatchesHeapOracle is the determinism regression for the
// wheel+heap calendar: over many randomized schedules, the firing order
// (including same-cycle seq ties), clock, pending counts, and budget
// behaviour must match the pre-overhaul container/heap engine exactly.
// Every calendar region must take entries, or the regression is silent
// about it.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	var regions [numRegions]int
	for seed := uint64(1); seed <= 200; seed++ {
		r := &regionTally{Engine: New()}
		got := runWorkload(r, seed)
		want := runWorkload(newOracle(), seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: %d vs oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: diverged at step %d: got (at=%d id=%d), oracle (at=%d id=%d)",
					seed, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
		for i, n := range r.n {
			regions[i] += n
		}
	}
	for i, n := range regions {
		if n == 0 {
			t.Errorf("no schedule landed in the %s", regionNames[i])
		}
	}
	t.Logf("schedules per region: %v %v", regionNames, regions)
}

// TestTasksFireInScheduleOrder checks that tasks sharing a cycle fire in
// scheduling order whatever their callees (At wraps a closure in a task
// of its own callee), and that fired tasks are recycled through the free
// list.
func TestTasksFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	mk := func(i int) *Task {
		tk := e.NewTask(func(tk *Task) { order = append(order, int(tk.I[0])) })
		tk.I[0] = int64(i)
		return tk
	}
	e.At(5, func() { order = append(order, 0) })
	e.AtTask(5, mk(1))
	e.At(5, func() { order = append(order, 2) })
	e.AtTask(3, mk(3))
	e.AfterTask(5, mk(4))
	e.Run()
	want := []int{3, 0, 1, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	// All three tasks came back to the free list: three NewTask calls in a
	// row must reuse them without growing the pool.
	a, b, c := e.NewTask(nil), e.NewTask(nil), e.NewTask(nil)
	if a == b || b == c || a == c {
		t.Fatal("free list handed out the same task twice")
	}
	// Recycling clears the pointer-shaped slots (GC + snapshot safety); the
	// I slots are deliberately left stale — callees read only what their
	// scheduler wrote.
	for _, tk := range []*Task{a, b, c} {
		if tk.Env[0] != nil {
			t.Fatalf("recycled task kept an Env reference: %+v", tk)
		}
	}
}

// TestBelowBaseScheduling pins the regression where a pour advances the
// near window past the clock and a subsequent event lands below nearBase.
func TestBelowBaseScheduling(t *testing.T) {
	e := New()
	var fired []Cycle
	log := func() { fired = append(fired, e.Now()) }
	e.At(5, log)
	e.At(70_000, log)
	e.RunUntil(10) // fires 5; locating 70k pours the window forward
	if len(fired) != 1 {
		t.Fatalf("fired %v, want just cycle 5", fired)
	}
	e.At(20, log) // below the advanced nearBase: must take the heap path
	e.At(70_001, log)
	e.Run()
	want := []Cycle{5, 20, 70_000, 70_001}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func BenchmarkEngineTaskShortDelays(b *testing.B) {
	// Four concurrent chains of small AfterTask delays — the CU-issue/bank-
	// service shape that dominates the experiment workloads. Steady-state
	// this must not allocate at all.
	b.ReportAllocs()
	e := New()
	remaining := b.N
	var chain TaskFunc
	chain = func(t *Task) {
		if remaining <= 0 {
			return
		}
		remaining--
		e.AfterTask(Cycle(remaining%61+1), e.NewTask(chain))
	}
	for i := 0; i < 4; i++ {
		e.AfterTask(Cycle(i+1), e.NewTask(chain))
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkEngineBankQueue(b *testing.B) {
	// A few hundred pooled-task chains whose delays follow the event mix
	// of a busy-wait polling run: one in five under 16 cycles (CU issue,
	// response legs), two in three 256–8,191 cycles out (atomics queued at
	// a contended L2 bank), the rest 16–255 cycles, and a thin tail past
	// 65,536 cycles (context transfers, firmware cadences).
	b.ReportAllocs()
	e := New()
	rng := uint64(1)
	remaining := b.N
	var chain TaskFunc
	chain = func(*Task) {
		if remaining <= 0 {
			return
		}
		remaining--
		var d Cycle
		switch r := splitmix(&rng) % 1000; {
		case r < 200:
			d = Cycle(1 + splitmix(&rng)%15)
		case r < 865:
			d = Cycle(256 + splitmix(&rng)%7936)
		case r < 995:
			d = Cycle(16 + splitmix(&rng)%240)
		default:
			d = Cycle(65_536 + splitmix(&rng)%65_536)
		}
		e.AfterTask(d, e.NewTask(chain))
	}
	for i := 0; i < 384; i++ {
		e.AfterTask(Cycle(i+1), e.NewTask(chain))
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkEngineMixedHorizon(b *testing.B) {
	// Delays spanning near wheel, far wheel and overflow heap, like a run
	// with firmware cadences and watchdogs in flight.
	b.ReportAllocs()
	e := New()
	rng := uint64(1)
	remaining := b.N
	var chain TaskFunc
	chain = func(*Task) {
		if remaining <= 0 {
			return
		}
		remaining--
		e.AfterTask(randDelta(&rng)+1, e.NewTask(chain))
	}
	for i := 0; i < 8; i++ {
		e.AfterTask(Cycle(i+1), e.NewTask(chain))
	}
	b.ResetTimer()
	e.Run()
}
