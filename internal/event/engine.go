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
// The calendar is a hierarchical timer wheel backed by a heap, sized for
// this model's event mix: almost every event is an After(d) with small d
// (CU issue chunks, L2/bank service, response legs), a thin band sits at
// the firmware cadences (thousands of cycles), and a handful of watchdog
// and harness events land far out.
//
//   - near wheel: 256 one-cycle buckets covering [nearBase, nearBase+256)
//   - far wheel: 256 buckets of 256 cycles each, covering the next ~65k
//     cycles; a far bucket cascades into the near wheel when the near
//     window advances onto it
//   - overflow heap: a hand-specialized 4-ary min-heap ordered by
//     (at, seq) for events beyond the far horizon, and for events
//     scheduled below nearBase (possible after a cascade ran ahead of
//     the clock)
//
// nearBase stays 256-aligned and only advances when the near window is
// empty, so every pour moves a far bucket's entries — already in seq
// order — into near buckets without any sorting. Firing compares the
// wheel's head against the heap's top by (at, seq), which preserves the
// global FIFO-within-a-timestamp guarantee across all three structures.
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
	nearBits = 8
	nearSize = 1 << nearBits // one-cycle buckets in the near wheel
	nearMask = nearSize - 1
	farSize  = 256 // nearSize-cycle buckets in the far wheel
	farMask  = farSize - 1
)

// scheduled is one calendar entry: either a plain closure (fn) or a pooled
// Task, never both.
type scheduled struct {
	at   Cycle
	seq  uint64
	fn   func()
	task *Task
}

// bucket is one wheel slot. pos is the consumption cursor; entries behind
// it have fired. The slice is reset lazily on the next append or pour after
// it fully drains, so steady-state scheduling reuses its backing array.
type bucket struct {
	ev  []scheduled
	pos int
}

// add appends ev, first emptying the bucket if it has fully drained; hw is
// the bucket's high-water mark (see Engine.nearHW).
func (b *bucket) add(ev scheduled, hw *int32) {
	if b.pos > 0 && b.pos == len(b.ev) {
		b.truncate(hw)
	}
	b.ev = append(b.ev, ev)
}

// truncate empties the bucket for reuse. The dropped slots keep their stale
// entries, so the bucket's high-water mark first rises to cover them.
func (b *bucket) truncate(hw *int32) {
	if n := int32(len(b.ev)); n > *hw {
		*hw = n
	}
	b.ev = b.ev[:0]
	b.pos = 0
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
	nearCnt  int // unconsumed entries in the near wheel
	farCnt   int // entries in the far wheel

	// nearOcc is the near wheel's occupancy bitmap: bit i set ⇔ near[i]
	// holds unconsumed entries. wheelHead finds the next head bucket with
	// a trailing-zeros scan instead of probing up to 256 buckets — the
	// wheel is sparse in this model's event mix, so the linear probe was
	// a measurable share of every fire.
	nearOcc [nearSize / 64]uint64

	heap []scheduled // 4-ary min-heap on (at, seq): overflow + below-base

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

	// nearHW/farHW are each bucket's high-water length since the engine
	// was last recycled, raised wherever a bucket is truncated. No slot at
	// or past a bucket's mark has been written since, so Recycle clears
	// only up to it. They live here rather than in bucket so the event
	// loop's memory layout does not change.
	nearHW [nearSize]int32
	farHW  [farSize]int32
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
// calendar entry: the entry plus a pooled task's environment.
const calendarEntryBytes = 176

// StateBytes estimates the engine's simulated state: a fixed header plus
// one entry per pending event.
func (e *Engine) StateBytes() int { return 64 + e.Pending()*calendarEntryBytes }

// At schedules fn to run at absolute cycle at. Scheduling in the past is a
// programming error in the timing model, so it panics rather than silently
// reordering time.
func (e *Engine) At(at Cycle, fn func()) {
	e.schedule(at, fn, nil)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycle, fn func()) {
	e.schedule(e.now+d, fn, nil)
}

// schedule assigns the next seq and files the entry. The near-window case —
// nearly every After in the model's event mix — is inlined here so the entry
// is built once, directly in the bucket's append slot, instead of being
// copied down a schedule→place→add call chain.
func (e *Engine) schedule(at Cycle, fn func(), task *Task) {
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at cycle %d before now %d", at, e.now))
	}
	e.seq++
	if at >= e.nearBase && at-e.nearBase < nearSize {
		i := at & nearMask
		b := &e.near[i]
		if b.pos > 0 && b.pos == len(b.ev) {
			b.truncate(&e.nearHW[i])
		}
		b.ev = append(b.ev, scheduled{at: at, seq: e.seq, fn: fn, task: task})
		e.nearOcc[(at&nearMask)>>6] |= 1 << (at & 63)
		e.nearCnt++
		if at < e.nearScan {
			e.nearScan = at
		}
		return
	}
	e.place(scheduled{at: at, seq: e.seq, fn: fn, task: task})
}

// place files an entry that already carries its seq into the calendar
// structure its timestamp selects.
func (e *Engine) place(ev scheduled) {
	at := ev.at
	if at >= e.nearBase {
		if at-e.nearBase < nearSize {
			i := at & nearMask
			e.near[i].add(ev, &e.nearHW[i])
			e.nearOcc[(at&nearMask)>>6] |= 1 << (at & 63)
			e.nearCnt++
			if at < e.nearScan {
				e.nearScan = at
			}
			return
		}
		if (at>>nearBits)-(e.nearBase>>nearBits) <= farSize {
			i := (at >> nearBits) & farMask
			e.far[i].add(ev, &e.farHW[i])
			e.farCnt++
			return
		}
	}
	e.heapPush(ev)
}

// wheelHead returns the bucket holding the earliest unconsumed wheel entry,
// cascading far buckets into the near window as needed, or nil when the
// wheel is empty.
func (e *Engine) wheelHead() *bucket {
	for {
		if e.nearCnt > 0 {
			// nearBase is 256-aligned, so a cycle's bucket index within
			// the window is its low byte and the occupancy scan is linear.
			i := int(e.nearScan - e.nearBase)
			w := i >> 6
			word := e.nearOcc[w] & (^uint64(0) << (uint(i) & 63))
			for {
				if word != 0 {
					idx := w<<6 | bits.TrailingZeros64(word)
					e.nearScan = e.nearBase + Cycle(idx)
					return &e.near[idx]
				}
				w++
				if w == len(e.nearOcc) {
					panic("event: near wheel count/content mismatch")
				}
				word = e.nearOcc[w]
			}
		}
		if e.farCnt == 0 {
			return nil
		}
		// The near window drained: advance it one far bucket at a time,
		// pouring that bucket's entries (already in seq order) into their
		// one-cycle slots.
		e.nearBase += nearSize
		e.nearScan = e.nearBase
		fi := (e.nearBase >> nearBits) & farMask
		fb := &e.far[fi]
		if n := len(fb.ev); n > 0 {
			for _, ev := range fb.ev {
				i := ev.at & nearMask
				e.near[i].add(ev, &e.nearHW[i])
				e.nearOcc[i>>6] |= 1 << (ev.at & 63)
			}
			fb.truncate(&e.farHW[fi])
			e.farCnt -= n
			e.nearCnt += n
		}
	}
}

// peek locates the earliest pending event across the wheel and the heap
// without consuming it. The returned bucket is nil when the winner sits on
// the heap; ok is false when the whole calendar is empty.
func (e *Engine) peek() (b *bucket, ok bool) {
	wb := e.wheelHead()
	if wb == nil {
		return nil, len(e.heap) > 0
	}
	if len(e.heap) > 0 {
		hv, wv := &e.heap[0], &wb.ev[wb.pos]
		if hv.at < wv.at || (hv.at == wv.at && hv.seq < wv.seq) {
			return nil, true
		}
	}
	return wb, true
}

// fire consumes and runs the event peek located.
func (e *Engine) fire(b *bucket) {
	var ev scheduled
	if b == nil {
		ev = e.heapPop()
	} else {
		// The slot is left as-is rather than zeroed: its fn/task pointers
		// are overwritten on the bucket's next append cycle, and nothing
		// reads behind pos.
		ev = b.ev[b.pos]
		b.pos++
		e.nearCnt--
		if b.pos == len(b.ev) {
			e.nearOcc[(ev.at&nearMask)>>6] &^= 1 << (ev.at & 63)
		}
	}
	e.now = ev.at
	e.executed++
	if ev.task != nil {
		t := ev.task
		t.fn(t)
		e.releaseTask(t)
		return
	}
	ev.fn()
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

// Step fires the single earliest event. It returns false when the calendar
// is empty.
func (e *Engine) Step() bool {
	b, ok := e.peek()
	if !ok {
		return false
	}
	e.fire(b)
	return true
}

// RunUntil fires events in timestamp order until the calendar drains, the
// next event lies beyond limit, or Stop is called. It returns the number of
// events fired. The loop body is peek+fire fused: this is the simulator's
// innermost loop, and the split version located the head entry twice per
// event.
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
		fromHeap := wb == nil
		if wb != nil {
			wv := &wb.ev[wb.pos]
			if e.heapMinAt < wv.at || (e.heapMinAt == wv.at && e.heapMinSeq < wv.seq) {
				fromHeap = true
			}
		}
		var ev scheduled
		if fromHeap {
			if len(e.heap) == 0 {
				break
			}
			if e.heap[0].at > limit {
				break
			}
			if e.budget != 0 && e.executed >= e.budget {
				e.budgetHit = true
				break
			}
			ev = e.heapPop()
		} else {
			ev = wb.ev[wb.pos]
			if ev.at > limit {
				break
			}
			if e.budget != 0 && e.executed >= e.budget {
				e.budgetHit = true
				break
			}
			wb.pos++
			e.nearCnt--
			if wb.pos == len(wb.ev) {
				e.nearOcc[(ev.at&nearMask)>>6] &^= 1 << (ev.at & 63)
			}
		}
		e.now = ev.at
		e.executed++
		if t := ev.task; t != nil {
			t.fn(t)
			e.releaseTask(t)
		} else {
			ev.fn()
		}
	}
	return e.executed - start
}

// Run fires events until the calendar drains or Stop is called.
func (e *Engine) Run() uint64 {
	return e.RunUntil(Never)
}

// NextEventAt reports the timestamp of the earliest pending event, or Never
// when the calendar is empty.
func (e *Engine) NextEventAt() Cycle {
	b, ok := e.peek()
	if !ok {
		return Never
	}
	if b == nil {
		return e.heap[0].at
	}
	return b.ev[b.pos].at
}

// --- 4-ary min-heap on (at, seq) ---

func evLess(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev scheduled) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
	e.heapMinAt, e.heapMinSeq = h[0].at, h[0].seq
}

func (e *Engine) heapPop() scheduled {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = scheduled{}
	h = h[:last]
	i := 0
	for {
		c := i<<2 + 1
		if c >= len(h) {
			break
		}
		m := c
		end := c + 4
		if end > len(h) {
			end = len(h)
		}
		for j := c + 1; j < end; j++ {
			if evLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !evLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	e.syncHeapMin()
	return top
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
