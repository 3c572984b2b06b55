package event

import "testing"

// zeroSlot reports whether a calendar slot holds nothing at all.
func zeroSlot(ev *scheduled) bool {
	return ev.at == 0 && ev.seq == 0 && ev.fn == nil && ev.task == nil
}

// staleSlots counts non-zero slots past each bucket's length: entries a
// truncation left behind, which only the high-water marks still cover.
func staleSlots(e *Engine) int {
	n := 0
	for _, wheel := range [][]bucket{e.near[:], e.far[:]} {
		for i := range wheel {
			b := &wheel[i]
			for _, ev := range b.ev[len(b.ev):cap(b.ev)] {
				if !zeroSlot(&ev) {
					n++
				}
			}
		}
	}
	return n
}

// TestRecycleClearsTouchedSlots dirties an engine the ways a run does —
// near buckets refilled at several depths, far buckets poured, the heap
// filled, work left pending with live tasks — then
// recycles it. Every slot up to every bucket's capacity must be zero
// afterwards, though Recycle clears only up to each bucket's high-water
// mark, and the recycled engine must fire a scripted schedule exactly as
// a fresh one does.
func TestRecycleClearsTouchedSlots(t *testing.T) {
	e := New()
	nop := func(*Task) {}
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
		e.After(Cycle(300+97*i), func() {})
		e.AfterTask(Cycle(70_000+i), e.NewTask(nop))
	}
	e.RunUntil(e.Now() + 1_000)
	// Refill the current cycle's bucket at shrinking depths: once drained,
	// it is reset lazily by the next After(0), the scheduling fast path.
	now := e.Now()
	if now < e.nearBase || now-e.nearBase >= nearSize {
		t.Fatalf("cycle %d outside the near window at %d", now, e.nearBase)
	}
	for _, depth := range []int{40, 20, 5} {
		for i := 0; i < depth; i++ {
			e.AfterTask(0, e.NewTask(nop))
		}
		e.RunUntil(now)
	}
	if b := &e.near[now&nearMask]; len(b.ev) != 5 || cap(b.ev) < 40 {
		t.Fatalf("refilled bucket holds %d of cap %d, want 5 of at least 40", len(b.ev), cap(b.ev))
	}
	for d := Cycle(1); d <= 3; d++ {
		e.AfterTask(d, e.NewTask(nop))
	}
	if e.Pending() == 0 || len(e.heap) == 0 || e.farCnt == 0 {
		t.Fatalf("dirtying left %d pending (%d far, %d heap); want all three regions occupied",
			e.Pending(), e.farCnt, len(e.heap))
	}
	if staleSlots(e) == 0 {
		t.Fatal("no stale slot past any bucket's length; the test exercises nothing")
	}

	e.Recycle()
	if got := NewPooled(); got != e {
		t.Fatal("NewPooled did not hand back the recycled engine")
	}
	for _, wheel := range []struct {
		name    string
		buckets []bucket
		hw      []int32
	}{{"near", e.near[:], e.nearHW[:]}, {"far", e.far[:], e.farHW[:]}} {
		for i := range wheel.buckets {
			b := &wheel.buckets[i]
			if len(b.ev) != 0 || b.pos != 0 || wheel.hw[i] != 0 {
				t.Fatalf("%s bucket %d: len %d pos %d high-water %d after Recycle", wheel.name, i, len(b.ev), b.pos, wheel.hw[i])
			}
			for j, ev := range b.ev[:cap(b.ev)] {
				if !zeroSlot(&ev) {
					t.Fatalf("%s bucket %d slot %d of %d still holds an entry after Recycle", wheel.name, i, j, cap(b.ev))
				}
			}
		}
	}
	for j, ev := range e.heap[:cap(e.heap)] {
		if !zeroSlot(&ev) {
			t.Fatalf("heap slot %d still holds an entry after Recycle", j)
		}
	}
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 || e.nearOcc != [nearSize / 64]uint64{} {
		t.Fatalf("recycled engine at cycle %d with %d pending, %d executed", e.Now(), e.Pending(), e.Executed())
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
