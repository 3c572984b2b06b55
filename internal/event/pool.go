package event

import (
	"math/bits"
	"sync"
)

// Engine recycling. A run's allocation profile is dominated by calendar
// state that every engine regrows from nothing: the task free list, bucket
// backing arrays, and the overflow heap. Harnesses that build one machine
// per configuration (the experiment sweeps run hundreds per suite) recycle
// the engine at teardown instead, so the next machine starts with warmed
// capacity.
//
// The pool is bounded: it only ever holds about as many engines as run
// concurrently, and an overflowing Recycle simply drops the engine for the
// GC to take.

var enginePool struct {
	mu   sync.Mutex
	free []*Engine
}

const enginePoolCap = 64

// NewPooled returns an engine from the recycle pool — reset, but with its
// task free list and calendar capacities intact — or a fresh one when the
// pool is empty.
func NewPooled() *Engine {
	enginePool.mu.Lock()
	if n := len(enginePool.free); n > 0 {
		e := enginePool.free[n-1]
		enginePool.free[n-1] = nil
		enginePool.free = enginePool.free[:n-1]
		enginePool.mu.Unlock()
		return e
	}
	enginePool.mu.Unlock()
	return New()
}

// Recycle resets the engine to its initial state — clock, counters and
// calendar as New() leaves them, retaining allocated capacity and the task
// free list — and offers it to the pool for a later NewPooled. The caller
// must drop every reference to the engine: scheduling on a recycled engine
// is a use-after-free in simulation terms.
func (e *Engine) Recycle() {
	e.reset()
	enginePool.mu.Lock()
	if len(enginePool.free) < enginePoolCap {
		enginePool.free = append(enginePool.free, e)
	}
	enginePool.mu.Unlock()
}

func (e *Engine) reset() {
	// Only the buckets marked since the last Recycle hold entries or
	// written slots; a short run leaves most of the 512 unmarked.
	near := e.nearDrained
	for w := range near {
		near[w] |= e.nearOcc[w]
	}
	e.drainMarked(e.near[:], e.nearHW[:], near[:])
	e.drainMarked(e.far[:], e.farHW[:], e.farUsed[:])
	e.nearDrained, e.farUsed = [nearSize / 64]uint64{}, [farSize / 64]uint64{}
	for i := range e.heap {
		if t := e.heap[i].task; t != nil {
			e.releaseTask(t)
		}
		e.heap[i] = scheduled{}
	}
	e.heap = e.heap[:0]
	e.syncHeapMin()
	e.nearCnt, e.farCnt = 0, 0
	e.nearOcc = [nearSize / 64]uint64{}
	e.now, e.seq, e.executed = 0, 0, 0
	e.stopped = false
	e.nearBase, e.nearScan = 0, 0
	e.budget, e.budgetHit = 0, false
}

// drainMarked drains each bucket of wheel whose bit is set in marks.
func (e *Engine) drainMarked(wheel []bucket, hw []int32, marks []uint64) {
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			e.drainBucket(&wheel[i], &hw[i])
		}
	}
}

// drainBucket returns a bucket's unconsumed tasks to the free list, empties
// it, and clears the slots written since the last Recycle — those below
// its high-water mark hw, which the truncation raises to cover the current
// entries; the rest are still zero — so a pooled engine pins no dead
// closures or tasks.
func (e *Engine) drainBucket(b *bucket, hw *int32) {
	for i := b.pos; i < len(b.ev); i++ {
		if t := b.ev[i].task; t != nil {
			e.releaseTask(t)
		}
	}
	b.truncate(hw)
	clear(b.ev[:*hw])
	*hw = 0
}
