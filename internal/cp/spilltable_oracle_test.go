package cp

import (
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/mem"
)

// spillModel mirrors spillTable semantics with plain Go containers: a map
// of waiter FIFOs and the check order as a slice of condition keys.
type spillModel struct {
	waiters map[condKey][]gpu.WGID
	order   []condKey
}

// keyspace enumerates the finite condition space the test drives, in a
// fixed order (4 addresses x 3 wants x 2 cmps).
func keyspace() []condKey {
	var ks []condKey
	for a := mem.Addr(0); a < 4*4; a += 4 {
		for w := int64(0); w < 3; w++ {
			for c := gpu.Cmp(0); c < 2; c++ {
				ks = append(ks, condKey{addr: a, want: w, cmp: c})
			}
		}
	}
	return ks
}

// unorder removes k from the model's check order, if present.
func (m *spillModel) unorder(k condKey) {
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *spillModel) check(t *testing.T, tab *spillTable, step int) {
	t.Helper()
	total, live := 0, 0
	liveAddrs := map[mem.Addr]bool{}
	for _, k := range keyspace() {
		ws := m.waiters[k]
		total += len(ws)
		if len(ws) > 0 {
			live++
			liveAddrs[k.addr] = true
		}
		e := tab.lookup(k)
		if (e != nilRef) != (len(ws) > 0) {
			t.Fatalf("step %d: cond %+v in table = %v, oracle waiters %v", step, k, e != nilRef, ws)
		}
		if e == nilRef {
			continue
		}
		// dropWaiters is the only reader of waiter order; probing it would
		// mutate, so diff the FIFO by walking the slot chain directly.
		w := tab.ents[e].wHead
		for i, want := range ws {
			if w == nilRef || tab.wnodes[w].wg != want {
				t.Fatalf("step %d: cond %+v waiter[%d] diverges from oracle %v", step, k, i, ws)
			}
			w = tab.wnodes[w].next
		}
		if w != nilRef {
			t.Fatalf("step %d: cond %+v waiter list longer than oracle %v", step, k, ws)
		}
	}
	if tab.waiters != total {
		t.Fatalf("step %d: waiters = %d, oracle %d", step, tab.waiters, total)
	}
	if tab.conditions() != live {
		t.Fatalf("step %d: conditions = %d, oracle %d", step, tab.conditions(), live)
	}
	if tab.monitoredAddrs() != len(liveAddrs) {
		t.Fatalf("step %d: monitoredAddrs = %d, oracle %d", step, tab.monitoredAddrs(), len(liveAddrs))
	}

	// The check order holds each live condition exactly once, in entry
	// order, and no empty condition.
	order := tab.appendOrder(nil)
	seen := map[condKey]bool{}
	for i, k := range order {
		if seen[k] {
			t.Fatalf("step %d: cond %+v appears twice in check order %v", step, k, order)
		}
		seen[k] = true
		if len(m.waiters[k]) == 0 {
			t.Fatalf("step %d: empty cond %+v in check order at %d", step, k, i)
		}
	}
	if len(order) != len(m.order) {
		t.Fatalf("step %d: check order %v, oracle %v", step, order, m.order)
	}
	for i := range order {
		if order[i] != m.order[i] {
			t.Fatalf("step %d: check order %v, oracle %v", step, order, m.order)
		}
	}
	// The back links mirror the forward walk.
	i := len(order) - 1
	for e := tab.oTail; e != nilRef; e = tab.ents[e].oPrev {
		if i < 0 || tab.ents[e].key != order[i] {
			t.Fatalf("step %d: backward check-order walk diverges at %d from %v", step, i, order)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("step %d: backward check-order walk stopped at %d of %d", step, i, len(order))
	}
}

// TestSpillTableOracle drives the slab spill table and a map-based oracle
// through a long seeded-random op sequence, diffing waiter order, check
// order, counters, and every returned value at each checked step. Freelist
// reuse after withdrawals and drops is exactly what the interleaving
// stresses.
func TestSpillTableOracle(t *testing.T) {
	ks := keyspace()
	for _, seed := range []uint64{1, 0x5eed, 0xdecafbad} {
		tab := newSpillTable()
		m := spillModel{waiters: map[condKey][]gpu.WGID{}}
		rng := seed
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for step := 0; step < 4000; step++ {
			k := ks[next(len(ks))]
			wg := gpu.WGID(next(8))
			switch next(4) {
			case 0, 1: // addWaiter (weighted: the table needs occupancy)
				if len(m.waiters[k]) == 0 {
					m.order = append(m.order, k)
				}
				m.waiters[k] = append(m.waiters[k], wg)
				tab.addWaiter(k, wg)
			case 2: // removeWaiter (first match)
				want := false
				for j, w := range m.waiters[k] {
					if w == wg {
						m.waiters[k] = append(m.waiters[k][:j], m.waiters[k][j+1:]...)
						want = true
						break
					}
				}
				if len(m.waiters[k]) == 0 {
					m.unorder(k)
				}
				if got := tab.removeWaiter(k, wg); got != want {
					t.Fatalf("seed %#x step %d: removeWaiter(%+v,%d) = %v, oracle %v", seed, step, k, wg, got, want)
				}
			case 3: // dropWaiters (check-met wake): FIFO order must match
				got := tab.dropWaiters(k, nil)
				want := m.waiters[k]
				if len(got) != len(want) {
					t.Fatalf("seed %#x step %d: dropWaiters(%+v) = %v, oracle %v", seed, step, k, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %#x step %d: dropWaiters(%+v) = %v, oracle %v", seed, step, k, got, want)
					}
				}
				delete(m.waiters, k)
				m.unorder(k)
			}
			if step%37 == 0 || step > 3900 {
				m.check(t, &tab, step)
			}
		}
		m.check(t, &tab, 4000)
	}
}
