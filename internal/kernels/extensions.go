package kernels

import (
	"fmt"

	"awgsim/internal/mem"
)

// This file extends the suite beyond the paper's Table 2 with two further
// fine-grained synchronization primitives built from the same waiting
// operations — a counting semaphore and a single-word reader-writer lock —
// exercising condition shapes the twelve HeteroSync benchmarks do not:
// greater-equal waits with multiple simultaneous winners (semaphore) and
// mixed reader/writer conditions on one variable.

// Extensions lists the extension benchmarks.
func Extensions() []string { return []string{"Semaphore", "RWLock"} }

// semaphoreBench: every WG repeatedly enters a region admitting at most K
// concurrent holders. Validation: total entries and a zero in-region count
// at the end; an over-admitting scheduler corrupts the occupancy counter's
// high-water mark, which is tracked inside the region under the semaphore's
// protection window.
func semaphoreBench(p Params) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	const permits = 4
	alloc := NewAddrAlloc(0x80000)
	sem := alloc.Word()     // free permits
	inside := alloc.Word()  // current holders
	entered := alloc.Word() // total successful entries
	maxSeen := alloc.Word() // per-WG-observed maximum holders (monotonic)
	barCount := alloc.Word()

	spec := baseSpec(p, "Semaphore", 12, 1<<10)
	spec.IR = semaphoreIR(p, sem, inside, entered, maxSeen, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Init: func(write func(mem.Addr, int64)) {
			write(sem, permits)
		},
		Verify: func(read func(mem.Addr) int64) error {
			if got := read(entered); got != int64(p.NumWGs*p.Iters) {
				return fmt.Errorf("Semaphore: %d entries, want %d", got, p.NumWGs*p.Iters)
			}
			if got := read(inside); got != 0 {
				return fmt.Errorf("Semaphore: %d holders left inside", got)
			}
			if got := read(sem); got != permits {
				return fmt.Errorf("Semaphore: %d permits at end, want %d", got, permits)
			}
			// maxSeen is sampled racily (load+CAS), so it can under-report;
			// it must never exceed the permit count.
			if got := read(maxSeen); got > permits {
				return fmt.Errorf("Semaphore: %d concurrent holders observed, permits %d", got, permits)
			}
			return nil
		},
	}, nil
}

// rwLockBench: 1 writer op in 5; readers observe a consistent pair of
// words the writer updates together — a torn read means the lock failed.
func rwLockBench(p Params) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x90000)
	lock := alloc.Word()               // 0 free, -1 writer held, n>0 n readers held
	a, b := alloc.Word(), alloc.Word() // writer keeps a == b
	writes := alloc.Word()
	torn := alloc.Word()
	barCount := alloc.Word()

	spec := baseSpec(p, "RWLock", 14, 1<<10)
	spec.IR = rwLockIR(p, lock, a, b, writes, torn, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			if got := read(torn); got != 0 {
				return fmt.Errorf("RWLock: %d torn reads — writer exclusivity violated", got)
			}
			if read(a) != read(b) {
				return fmt.Errorf("RWLock: final pair %d != %d", read(a), read(b))
			}
			if got := read(lock); got != 0 {
				return fmt.Errorf("RWLock: lock word %d at end, want 0", got)
			}
			var want int64
			for wg := 0; wg < p.NumWGs; wg++ {
				for i := 0; i < p.Iters; i++ {
					if (wg+i)%5 == 0 {
						want++
					}
				}
			}
			if got := read(writes); got != want {
				return fmt.Errorf("RWLock: %d writes, want %d", got, want)
			}
			return nil
		},
	}, nil
}
