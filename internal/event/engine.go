// Package event implements the deterministic discrete-event engine that
// drives the GPU timing model.
//
// All simulated hardware (compute units, cache banks, the SyncMon, the
// command processor) advances by scheduling work at absolute cycle
// timestamps. Events that share a timestamp fire in scheduling order, so a
// given (configuration, seed) pair always produces an identical execution —
// the property every experiment harness and regression test in this
// repository relies on.
//
// # Calendar structure
//
// Every pending event is a pooled Task: a named callee with its arguments
// in inline slots, scheduled with AtTask or AfterTask. The calendar is a
// hierarchical timer wheel backed by a heap, sized for this model's event
// mix: most events are short AfterTask(d) legs (CU issue chunks, bank
// service, response legs) or atomic legs queued at an L2 bank
// a few thousand cycles ahead, a thin band sits at the firmware cadences and
// context transfers (tens of thousands of cycles), and a handful of watchdog
// and harness events land far out.
//
//   - near wheel: 1,024 one-cycle buckets covering [nearBase, nearBase+1024)
//   - far wheel: 256 buckets of 1,024 cycles each, covering the next
//     262,144 cycles; a far bucket pours into the near wheel when the near
//     window advances onto it
//   - overflow heap: a 4-ary min-heap of tasks ordered by (at, seq) for
//     events beyond the far horizon, and for events scheduled below
//     nearBase (possible after a pour ran ahead of the clock)
//
// A wheel bucket is a FIFO list threaded through the tasks' own next link,
// so scheduling writes a few pointers and a pour relinks tasks without
// copying them. Every schedule takes the next seq, and a bucket's list is in
// append order, so each list is in seq order. nearBase stays 1,024-aligned
// and only advances when the near window is empty, so a pour walks a far
// list — already in seq order — onto empty near lists, and each keeps seq
// order with no sorting. Firing compares the wheel's head against the
// heap's top by (at, seq), which preserves the global FIFO-within-a-
// timestamp guarantee across all three structures.
package event

import (
	"fmt"
	"math/bits"
)

// Cycle is an absolute simulated-clock timestamp. The baseline GPU model
// runs at 2 GHz, so one Cycle is 0.5 ns of simulated time.
type Cycle uint64

// Never is a sentinel timestamp further in the future than any simulation
// this package is asked to run.
const Never Cycle = 1<<63 - 1

const (
	nearBits = 10
	nearSize = 1 << nearBits // one-cycle buckets in the near wheel
	nearMask = nearSize - 1
	farSize  = 256 // nearSize-cycle buckets in the far wheel
	farMask  = farSize - 1
)

// bucket is one wheel slot: a FIFO list of tasks linked through Task.next.
// An empty bucket has both ends nil.
type bucket struct {
	head, tail *Task
}

// push appends t, whose next link is nil, to the bucket's list.
func (b *bucket) push(t *Task) {
	if b.head == nil {
		b.head = t
	} else {
		b.tail.next = t
	}
	b.tail = t
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the GPU model funnels all activity through one goroutine.
type Engine struct {
	now      Cycle
	seq      uint64
	executed uint64
	stopped  bool

	near     [nearSize]bucket
	far      [farSize]bucket
	nearBase Cycle
	nearScan Cycle
	nearCnt  int // tasks in the near wheel
	farCnt   int // tasks in the far wheel

	// nearOcc is the near wheel's occupancy bitmap: bit i set ⇔ near[i]
	// holds tasks, and bit w of nearSum is set ⇔ nearOcc[w] is non-zero.
	// wheelHead finds the next head bucket with trailing-zeros scans
	// instead of probing up to 1,024 buckets. farOcc marks the far
	// buckets holding tasks, so Recycle visits only those.
	nearSum uint64
	nearOcc [nearSize / 64]uint64
	farOcc  [farSize / 64]uint64

	heap []*Task // 4-ary min-heap on (at, seq): overflow + below-base

	// heapMinAt/heapMinSeq mirror heap[0]'s ordering key (all-ones
	// sentinel when the heap is empty). The run loop compares the wheel
	// head against the heap top once per fired event; the cached key makes
	// that two engine-local loads instead of chasing the heap slice.
	heapMinAt  Cycle
	heapMinSeq uint64

	free *Task // task free list

	// budget, when non-zero, caps the total events the engine will ever
	// execute. A zero-delay event loop never advances the clock, so a
	// cycle cap alone cannot terminate it; the event budget is the
	// watchdog of last resort against such livelocks.
	budget    uint64
	budgetHit bool
}

// New returns an engine positioned at cycle zero with an empty calendar.
func New() *Engine {
	return &Engine{heapMinAt: ^Cycle(0), heapMinSeq: ^uint64(0)}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Executed reports how many events have fired so far, a cheap progress
// metric for watchdogs and tests.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting on the calendar.
func (e *Engine) Pending() int { return e.nearCnt + e.farCnt + len(e.heap) }

// calendarEntryBytes is the footprint StateBytes charges per pending
// event. It is a model constant, not the host footprint: the fleet's
// migration pause is derived from a machine's StateBytes, so changing it
// moves the fleet's results.
const calendarEntryBytes = 176

// StateBytes estimates the engine's simulated state: a fixed header plus
// one entry per pending event.
func (e *Engine) StateBytes() int { return 64 + e.Pending()*calendarEntryBytes }

// schedule stamps t with at and the next seq and links it into the
// calendar structure at selects. Scheduling in the past is a programming
// error in the timing model, so it panics rather than silently reordering
// time. A task that is already pending would splice two lists together,
// so scheduling one panics too.
func (e *Engine) schedule(at Cycle, t *Task) {
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at cycle %d before now %d", at, e.now))
	}
	if t.seq != 0 {
		panic(fmt.Sprintf("event: scheduling a task already pending at cycle %d", t.at))
	}
	e.seq++
	t.at, t.seq = at, e.seq
	if at >= e.nearBase {
		if at-e.nearBase < nearSize {
			e.nearPush(t)
			e.nearCnt++
			if at < e.nearScan {
				e.nearScan = at
			}
			return
		}
		if (at>>nearBits)-(e.nearBase>>nearBits) <= farSize {
			i := (at >> nearBits) & farMask
			e.far[i].push(t)
			e.farOcc[i>>6] |= 1 << (i & 63)
			e.farCnt++
			return
		}
	}
	e.heapPush(t)
}

// nearPush appends t, which lies in the near window, to its one-cycle
// bucket and marks the bucket occupied.
func (e *Engine) nearPush(t *Task) {
	i := t.at & nearMask
	e.near[i].push(t)
	e.nearOcc[i>>6] |= 1 << (i & 63)
	e.nearSum |= 1 << (i >> 6)
}

// wheelHead returns the bucket holding the earliest wheel task, pouring far
// buckets into the near window as needed, or nil when the wheel is empty.
func (e *Engine) wheelHead() *bucket {
	for {
		if e.nearCnt > 0 {
			// nearBase is nearSize-aligned, so a cycle's bucket index
			// within the window is its low bits and the scan is linear.
			i := int(e.nearScan - e.nearBase)
			w := i >> 6
			word := e.nearOcc[w] & (^uint64(0) << (uint(i) & 63))
			if word == 0 {
				rest := e.nearSum & (^uint64(0) << (uint(w) + 1))
				if rest == 0 {
					panic("event: near wheel count/content mismatch")
				}
				w = bits.TrailingZeros64(rest)
				word = e.nearOcc[w]
			}
			idx := w<<6 | bits.TrailingZeros64(word)
			e.nearScan = e.nearBase + Cycle(idx)
			return &e.near[idx]
		}
		if e.farCnt == 0 {
			return nil
		}
		// The near window drained: advance it one far bucket at a time,
		// relinking that bucket's tasks (already in seq order) onto their
		// one-cycle lists.
		e.nearBase += nearSize
		e.nearScan = e.nearBase
		fi := (e.nearBase >> nearBits) & farMask
		fb := &e.far[fi]
		for t := fb.head; t != nil; {
			next := t.next
			t.next = nil
			e.nearPush(t)
			e.farCnt--
			e.nearCnt++
			t = next
		}
		*fb = bucket{}
		e.farOcc[fi>>6] &^= 1 << (fi & 63)
	}
}

// SetEventBudget caps the total number of events the engine will execute
// across its lifetime; 0 (the default) disables the cap. Run/RunUntil stop
// once the budget is exhausted, and BudgetExhausted reports it. The cap is
// the livelock backstop: a zero-delay event loop never advances the clock,
// so no cycle limit can end it, but every spin costs an event.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// BudgetExhausted reports whether a Run/RunUntil stopped because the event
// budget ran out.
func (e *Engine) BudgetExhausted() bool { return e.budgetHit }

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Further events remain on the calendar.
func (e *Engine) Stop() { e.stopped = true }

// RunUntil fires events in timestamp order until the calendar drains, the
// next event lies beyond limit, or Stop is called. It returns the number of
// events fired. This is the simulator's innermost loop and the only path
// that fires events; Fire runs a task inside the current one.
func (e *Engine) RunUntil(limit Cycle) uint64 {
	e.stopped = false
	start := e.executed
	for !e.stopped {
		// Inline wheelHead's hit case: consecutive fires usually land in
		// the occupancy word nearScan points into, and this loop runs once
		// per event.
		var wb *bucket
		if e.nearCnt > 0 {
			i := int(e.nearScan - e.nearBase)
			w := i >> 6
			if word := e.nearOcc[w] & (^uint64(0) << (uint(i) & 63)); word != 0 {
				idx := w<<6 | bits.TrailingZeros64(word)
				e.nearScan = e.nearBase + Cycle(idx)
				wb = &e.near[idx]
			} else {
				wb = e.wheelHead()
			}
		} else if e.farCnt > 0 {
			wb = e.wheelHead()
		}
		var t *Task
		if wb != nil {
			t = wb.head
			if e.heapMinAt < t.at || (e.heapMinAt == t.at && e.heapMinSeq < t.seq) {
				t = nil
			}
		}
		fromHeap := t == nil
		if fromHeap {
			if len(e.heap) == 0 {
				break
			}
			t = e.heap[0]
		}
		if t.at > limit {
			break
		}
		if e.budget != 0 && e.executed >= e.budget {
			e.budgetHit = true
			break
		}
		if fromHeap {
			e.heapPop()
		} else {
			e.nearCnt--
			if wb.head = t.next; wb.head == nil {
				wb.tail = nil
				i := t.at & nearMask
				w := i >> 6
				if e.nearOcc[w] &^= 1 << (i & 63); e.nearOcc[w] == 0 {
					e.nearSum &^= 1 << w
				}
			}
		}
		e.now = t.at
		e.executed++
		t.fn(t)
		e.releaseTask(t)
	}
	return e.executed - start
}

// Run fires events until the calendar drains or Stop is called.
func (e *Engine) Run() uint64 {
	return e.RunUntil(Never)
}

// --- 4-ary min-heap of tasks on (at, seq) ---

func taskLess(a, b *Task) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(t *Task) {
	h := append(e.heap, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !taskLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
	e.heapMinAt, e.heapMinSeq = h[0].at, h[0].seq
}

// heapPop removes the heap's top task; RunUntil has already read it.
func (e *Engine) heapPop() {
	h := e.heap
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		c := i<<2 + 1
		if c >= len(h) {
			break
		}
		m := c
		end := min(c+4, len(h))
		for j := c + 1; j < end; j++ {
			if taskLess(h[j], h[m]) {
				m = j
			}
		}
		if !taskLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	e.syncHeapMin()
}

// syncHeapMin refreshes the cached heap-top key after a bulk heap
// mutation (pop, reset).
func (e *Engine) syncHeapMin() {
	if len(e.heap) == 0 {
		e.heapMinAt, e.heapMinSeq = ^Cycle(0), ^uint64(0)
		return
	}
	e.heapMinAt, e.heapMinSeq = e.heap[0].at, e.heap[0].seq
}
