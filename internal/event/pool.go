package event

import (
	"math/bits"
	"sync"
)

// Engine recycling. A run's allocation profile is dominated by calendar
// state that every engine regrows from nothing: the task free list and the
// overflow heap. Harnesses that build one machine per configuration (the
// experiment sweeps run hundreds per suite) recycle the engine at teardown
// instead, so the next machine starts with warmed capacity.
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
// task free list and heap capacity intact — or a fresh one when the pool is
// empty.
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
// calendar as New() leaves them, retaining the heap's capacity and the task
// free list, which takes back every pending task — and offers it to the
// pool for a later NewPooled. The caller must drop every reference to the
// engine: scheduling on a recycled engine is a use-after-free in simulation
// terms.
func (e *Engine) Recycle() {
	e.reset()
	enginePool.mu.Lock()
	if len(enginePool.free) < enginePoolCap {
		enginePool.free = append(enginePool.free, e)
	}
	enginePool.mu.Unlock()
}

func (e *Engine) reset() {
	// Only the buckets whose occupancy bit is set hold tasks; a drained
	// bucket is already empty, so nothing else needs clearing.
	e.releaseMarked(e.near[:], e.nearOcc[:])
	e.releaseMarked(e.far[:], e.farOcc[:])
	for i, t := range e.heap {
		e.releaseTask(t)
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.syncHeapMin()
	e.nearCnt, e.farCnt = 0, 0
	e.nearSum = 0
	e.nearOcc = [nearSize / 64]uint64{}
	e.farOcc = [farSize / 64]uint64{}
	e.now, e.seq, e.executed = 0, 0, 0
	e.stopped = false
	e.nearBase, e.nearScan = 0, 0
	e.budget, e.budgetHit = 0, false
}

// releaseMarked returns the tasks of each bucket of wheel whose bit is set
// in occ to the free list and empties the bucket.
func (e *Engine) releaseMarked(wheel []bucket, occ []uint64) {
	for w, word := range occ {
		for ; word != 0; word &= word - 1 {
			b := &wheel[w<<6|bits.TrailingZeros64(word)]
			for t := b.head; t != nil; {
				next := t.next
				e.releaseTask(t)
				t = next
			}
			*b = bucket{}
		}
	}
}
