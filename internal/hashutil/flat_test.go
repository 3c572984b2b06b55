package hashutil

import (
	"math/rand"
	"testing"
)

// TestFlatMatchesMapOracle churns a Flat against a Go map under random
// insert/update/delete sequences, exercising growth and the backward-shift
// deletion's cluster repair.
func TestFlatMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFlat[uint64, int64](4, Mix64)
		oracle := map[uint64]int64{}
		// A small key universe forces heavy collision and delete/reinsert
		// traffic through the same clusters.
		const universe = 97
		for op := 0; op < 20_000; op++ {
			k := uint64(rng.Intn(universe)) * 8
			switch rng.Intn(3) {
			case 0: // insert/update
				v := rng.Int63()
				*f.Put(k) = v
				oracle[k] = v
			case 1: // delete
				if f.Delete(k) != (func() bool { _, ok := oracle[k]; return ok })() {
					t.Fatalf("seed %d op %d: Delete(%d) presence mismatch", seed, op, k)
				}
				delete(oracle, k)
			case 2: // lookup
				p := f.Ref(k)
				v, ok := oracle[k]
				if (p != nil) != ok {
					t.Fatalf("seed %d op %d: Ref(%d) presence mismatch", seed, op, k)
				}
				if ok && *p != v {
					t.Fatalf("seed %d op %d: Ref(%d) = %d, want %d", seed, op, k, *p, v)
				}
			}
			if f.Len() != len(oracle) {
				t.Fatalf("seed %d op %d: Len %d, oracle %d", seed, op, f.Len(), len(oracle))
			}
		}
		// Full sweep: every oracle key must resolve.
		for k, v := range oracle {
			p := f.Ref(k)
			if p == nil || *p != v {
				t.Fatalf("seed %d: final Ref(%d) mismatch", seed, k)
			}
		}
	}
}

func TestFlatZeroAndGrowth(t *testing.T) {
	f := NewFlat[uint64, int](0, Mix64)
	for i := uint64(0); i < 1000; i++ {
		*f.Put(i) = int(i)
	}
	if f.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", f.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		if p := f.Ref(i); p == nil || *p != int(i) {
			t.Fatalf("Ref(%d) lost after growth", i)
		}
	}
	for i := uint64(0); i < 1000; i += 2 {
		if !f.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if f.Len() != 500 {
		t.Fatalf("Len = %d, want 500", f.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		p := f.Ref(i)
		if (i%2 == 1) != (p != nil) {
			t.Fatalf("Ref(%d) presence wrong after deletes", i)
		}
	}
}

// TestFlatSlotsOnFirstPut: an untouched table costs nothing — Ref, Delete
// and Len allocate no object and report every key absent — and the first
// Put sizes the slots from the hint, keeping the load factor under 3/4 so
// that hint entries fit without a growth.
func TestFlatSlotsOnFirstPut(t *testing.T) {
	for _, tc := range []struct{ hint, slots int }{{0, 8}, {6, 8}, {7, 16}, {16, 32}, {64, 128}} {
		f := NewFlat[uint64, int](tc.hint, Mix64)
		allocs := testing.AllocsPerRun(100, func() {
			if f.Ref(8) != nil || f.Delete(8) || f.Len() != 0 {
				t.Fatalf("hint %d: fresh table reports a key present", tc.hint)
			}
		})
		if allocs != 0 || f.slots != nil {
			t.Fatalf("hint %d: fresh table allocated %.0f objects, slots %d", tc.hint, allocs, len(f.slots))
		}
		*f.Put(8) = 1
		if len(f.slots) != tc.slots {
			t.Fatalf("hint %d: first Put allocated %d slots, want %d", tc.hint, len(f.slots), tc.slots)
		}
		for k := uint64(1); k < uint64(tc.hint); k++ {
			*f.Put(8 * (k + 1)) = int(k)
		}
		if len(f.slots) != tc.slots {
			t.Fatalf("hint %d: %d entries grew the table to %d slots", tc.hint, f.Len(), len(f.slots))
		}
		if p := f.Ref(8); p == nil || *p != 1 {
			t.Fatalf("hint %d: first key lost", tc.hint)
		}
	}
}
