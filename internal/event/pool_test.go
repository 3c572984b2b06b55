package event

import "testing"

// TestRecycleClearsTouchedSlots dirties an engine each way a run leaves
// tasks in the calendar, recycles it, and checks that the recycled engine
// is as New leaves it apart from its free list and heap capacity: nothing
// pending, every bucket empty, the occupancy bitmaps zero, every task the
// engine made back on its free list with nil Env, and a scripted schedule
// firing exactly as on a fresh engine. The cases:
//   - run: near buckets refilled and drained by RunUntil, far buckets
//     poured, the heap fed beyond the far horizon and below the near
//     window's base, and tasks left pending in every region;
//   - stop: a run stopped mid-flight by a callee, with live tasks in
//     every region;
//   - step: near buckets drained one event at a time, one left part-drained;
//   - far: far buckets that took tasks but never poured;
//   - twice: a second Recycle straight after the first.
func TestRecycleClearsTouchedSlots(t *testing.T) {
	nop := func(*Task) {}
	for _, tc := range []struct {
		name  string
		dirty func(t *testing.T) *Engine
	}{
		{"run", func(t *testing.T) *Engine {
			e := New()
			for round := 4; round >= 1; round-- {
				for d := Cycle(1); d <= 6; d++ {
					for i := 0; i < round*int(d); i++ {
						e.AfterTask(d, e.NewTask(nop))
						e.After(d+8, func() {})
					}
				}
				e.Run()
			}
			for i := 0; i < 64; i++ {
				e.After(Cycle(nearSize+97*i), func() {})
				e.AfterTask(Cycle(farSpan+nearSize+Cycle(i)), e.NewTask(nop))
			}
			e.RunUntil(e.Now() + 8*nearSize)
			// Locating a task two windows out pours the window past the
			// clock, so the next near delay lands on the heap below it.
			now := e.Now()
			e.AtTask(now+3*nearSize, e.NewTask(nop))
			e.RunUntil(now + nearSize)
			if e.Now() != now || e.nearBase <= now+1 {
				t.Fatalf("window at %d with the clock at %d (was %d), want it past the clock", e.nearBase, e.Now(), now)
			}
			heap := len(e.heap)
			e.AfterTask(1, e.NewTask(nop))
			e.After(2, func() {})
			if len(e.heap) != heap+2 {
				t.Fatalf("heap grew %d → %d, want two below-base tasks", heap, len(e.heap))
			}
			e.AtTask(e.nearBase+5, e.NewTask(nop))
			e.At(e.nearBase+5*nearSize, func() {})
			if e.nearCnt == 0 || e.farCnt == 0 || len(e.heap) == 0 {
				t.Fatalf("dirtying left %d near, %d far, %d heap; want all three regions occupied",
					e.nearCnt, e.farCnt, len(e.heap))
			}
			return e
		}},
		{"stop", func(t *testing.T) *Engine {
			e := New()
			n := 0
			var chain TaskFunc
			chain = func(*Task) {
				n++
				if n == 50 {
					e.Stop()
				}
				e.AfterTask(Cycle(n%7), e.NewTask(chain))
				e.After(Cycle(nearSize*(1+n%5)), func() {})
				if n%10 == 0 {
					e.AfterTask(farSpan+nearSize, e.NewTask(nop))
				}
			}
			e.AfterTask(1, e.NewTask(chain))
			e.Run()
			if n != 50 || e.nearCnt == 0 || e.farCnt == 0 || len(e.heap) == 0 {
				t.Fatalf("stopped after %d links with %d near, %d far, %d heap; want 50 and all three regions occupied",
					n, e.nearCnt, e.farCnt, len(e.heap))
			}
			return e
		}},
		{"step", func(t *testing.T) *Engine {
			e := New()
			for d := Cycle(1); d <= 5; d++ {
				for i := 0; i < int(d); i++ {
					e.AfterTask(d, e.NewTask(nop))
				}
			}
			for i := 0; i < 7; i++ {
				step(e)
			}
			if b := &e.near[4]; e.Now() != 4 || b.head == nil || b.head == b.tail {
				t.Fatalf("clock at %d; want cycle 4's bucket part-drained", e.Now())
			}
			return e
		}},
		{"far", func(t *testing.T) *Engine {
			e := New()
			for i := 0; i < 8; i++ {
				e.AfterTask(Cycle(nearSize+300*i), e.NewTask(nop))
				e.After(Cycle(nearSize+300*i+1), func() {})
			}
			if e.farCnt != 16 || e.nearBase != 0 {
				t.Fatalf("far wheel holds %d tasks at near base %d, want 16 unpoured", e.farCnt, e.nearBase)
			}
			return e
		}},
		{"twice", func(t *testing.T) *Engine {
			e := New()
			for d := Cycle(1); d <= 5; d++ {
				e.AfterTask(d, e.NewTask(nop))
				e.AfterTask(d*nearSize, e.NewTask(nop))
			}
			e.RunUntil(nearSize + 2)
			e.Recycle()
			if got := NewPooled(); got != e {
				t.Fatal("NewPooled did not hand back the recycled engine")
			}
			return e
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.dirty(t)
			// Outside a run, each task the engine made is pending or free.
			tasks := freeTasks(t, e) + e.Pending()
			e.Recycle()
			if got := NewPooled(); got != e {
				t.Fatal("NewPooled did not hand back the recycled engine")
			}
			checkRecycled(t, e, tasks)
		})
	}
}

// freeTasks walks e's free list, checking that each task on it appears
// once and was released (no callee, no Env, no seq), and returns its length.
func freeTasks(t *testing.T, e *Engine) int {
	t.Helper()
	seen := make(map[*Task]bool)
	for tk := e.free; tk != nil; tk = tk.next {
		if seen[tk] {
			t.Fatalf("a task is on the free list twice, after %d others", len(seen))
		}
		seen[tk] = true
		if tk.fn != nil || tk.seq != 0 || tk.Env[0] != nil || tk.Env[1] != nil || tk.Env[2] != nil || tk.Env[3] != nil {
			t.Fatalf("free task %d holds a callee, seq %d or an Env reference", len(seen), tk.seq)
		}
	}
	return len(seen)
}

// checkRecycled checks that e, just recycled, is as New leaves it apart
// from capacity, holds all tasks of its engine on its free list, and fires
// like a fresh engine.
func checkRecycled(t *testing.T, e *Engine, tasks int) {
	t.Helper()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 {
		t.Fatalf("recycled engine at cycle %d with %d pending, %d executed", e.Now(), e.Pending(), e.Executed())
	}
	if e.nearSum != 0 || e.nearOcc != [nearSize / 64]uint64{} || e.farOcc != [farSize / 64]uint64{} {
		t.Fatalf("recycled engine keeps occupancy bits: near %x (summary %x), far %x", e.nearOcc, e.nearSum, e.farOcc)
	}
	for _, wheel := range []struct {
		name    string
		buckets []bucket
	}{{"near", e.near[:]}, {"far", e.far[:]}} {
		for i, b := range wheel.buckets {
			if b.head != nil || b.tail != nil {
				t.Fatalf("%s bucket %d still links tasks after Recycle", wheel.name, i)
			}
		}
	}
	for j, tk := range e.heap[:cap(e.heap)] {
		if tk != nil {
			t.Fatalf("heap slot %d still holds a task after Recycle", j)
		}
	}
	if got := freeTasks(t, e); got != tasks {
		t.Fatalf("free list holds %d tasks after Recycle, want all %d the engine made", got, tasks)
	}

	got, want := runWorkload(e, 11), runWorkload(New(), 11)
	if len(got) != len(want) {
		t.Fatalf("recycled engine fired %d trace steps, fresh engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recycled engine diverged at step %d: (at=%d id=%d), fresh (at=%d id=%d)",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
}
