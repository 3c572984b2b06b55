package syncmon

import (
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/mem"
)

// oCond is the oracle's view of one cached condition: the tag, its set,
// and its waiter FIFO.
type oCond struct {
	set  int
	addr mem.Addr
	want int64
	cmp  gpu.Cmp
	ws   []waiter
}

// condOracle mirrors condStore semantics with plain Go slices and a map —
// essentially the pre-slab representation — so a fuzzer can drive both
// through one op stream and diff every observable: set occupancy and
// insertion order, per-address registration chains, waiter FIFOs, and the
// monitored-address count.
type condOracle struct {
	sets   [][]*oCond            // per-set, insertion order
	byAddr map[mem.Addr][]*oCond // per-address, registration order
}

func (o *condOracle) insert(si int, addr mem.Addr, want int64, cmp gpu.Cmp) (oc *oCond, first bool) {
	oc = &oCond{set: si, addr: addr, want: want, cmp: cmp}
	first = len(o.byAddr[addr]) == 0
	o.sets[si] = append(o.sets[si], oc)
	o.byAddr[addr] = append(o.byAddr[addr], oc)
	return oc, first
}

func (o *condOracle) drop(oc *oCond) (last bool) {
	o.sets[oc.set] = spliceOut(o.sets[oc.set], oc)
	chain := spliceOut(o.byAddr[oc.addr], oc)
	if len(chain) == 0 {
		delete(o.byAddr, oc.addr)
		return true
	}
	o.byAddr[oc.addr] = chain
	return false
}

func spliceOut(s []*oCond, oc *oCond) []*oCond {
	for i, c := range s {
		if c == oc {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// checkMirror diffs every observable of cs against the oracle.
func checkMirror(t *testing.T, cs *condStore, o *condOracle, live []*oCond, refs []int32) {
	t.Helper()
	if cs.monitoredAddrs() != len(o.byAddr) {
		t.Fatalf("monitoredAddrs = %d, oracle %d", cs.monitoredAddrs(), len(o.byAddr))
	}
	for si := range o.sets {
		if cs.setSize(si) != len(o.sets[si]) {
			t.Fatalf("set %d size = %d, oracle %d", si, cs.setSize(si), len(o.sets[si]))
		}
		for i, oc := range o.sets[si] {
			c := cs.at(cs.setEnt[si*cs.stride+i])
			if c.addr != oc.addr || c.want != oc.want || c.cmp != oc.cmp {
				t.Fatalf("set %d way %d = (%d,%d,%v), oracle (%d,%d,%v)",
					si, i, c.addr, c.want, c.cmp, oc.addr, oc.want, oc.cmp)
			}
		}
	}
	// Address chains must list conditions in registration order. The finite
	// address space is enumerated directly (not by ranging the oracle map)
	// to keep failure output deterministic.
	for a := mem.Addr(0); a < 6*4; a += 4 {
		chain := o.byAddr[a]
		e := cs.firstOnAddr(a)
		for i, oc := range chain {
			if e == nilRef {
				t.Fatalf("addr %d chain ends at %d, oracle has %d", a, i, len(chain))
			}
			c := cs.at(e)
			if c.addr != oc.addr || c.want != oc.want || c.cmp != oc.cmp {
				t.Fatalf("addr %d chain[%d] = (%d,%d,%v), oracle (%d,%d,%v)",
					a, i, c.addr, c.want, c.cmp, oc.addr, oc.want, oc.cmp)
			}
			e = c.addrNext
		}
		if e != nilRef {
			t.Fatalf("addr %d chain longer than oracle's %d", a, len(chain))
		}
	}
	// Waiter FIFOs, per live condition.
	for i, oc := range live {
		c := cs.at(refs[i])
		if int(c.wLen) != len(oc.ws) {
			t.Fatalf("cond (%d,%d,%v) wLen = %d, oracle %d", oc.addr, oc.want, oc.cmp, c.wLen, len(oc.ws))
		}
		w := c.wHead
		for j, want := range oc.ws {
			if cs.wnodes[w].wt != want {
				t.Fatalf("cond (%d,%d,%v) waiter[%d] = %+v, oracle %+v",
					oc.addr, oc.want, oc.cmp, j, cs.wnodes[w].wt, want)
			}
			w = cs.wnodes[w].next
		}
		if w != nilRef {
			t.Fatalf("cond (%d,%d,%v) waiter list longer than oracle's %d", oc.addr, oc.want, oc.cmp, len(oc.ws))
		}
	}
}

// FuzzCondStore drives the slab condition store and the map/slice oracle
// through one byte-encoded op stream and diffs every observable after each
// op: a divergence in set order, chain order, waiter FIFO order, freelist
// reuse, or any returned value fails with the op position in hand.
func FuzzCondStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 8, 1, 1, 2, 2, 0, 3, 0})
	f.Add([]byte{0, 1, 1, 1, 2, 0, 5, 2, 2, 1, 3, 0, 4, 0, 5, 0, 7, 6, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const sets, ways = 4, 2
		cs := newCondStore(sets, ways, 8)
		o := condOracle{sets: make([][]*oCond, sets), byAddr: map[mem.Addr][]*oCond{}}
		var live []*oCond
		var refs []int32
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		pick := func() int { return int(next()) % len(live) }
		for pos < len(data) {
			switch op := next(); op % 8 {
			case 0: // insert, guarded exactly as SyncMon guards it
				si := int(next()) % sets
				addr := mem.Addr(next()%6) * 4
				want := int64(next() % 3)
				cmp := gpu.Cmp(next() % 2)
				if cs.setSize(si) >= ways || cs.find(si, addr, want, cmp) != nilRef {
					continue
				}
				e, first := cs.insert(si, addr, want, cmp)
				oc, ofirst := o.insert(si, addr, want, cmp)
				if first != ofirst {
					t.Fatalf("pos %d: insert firstOnAddr = %v, oracle %v", pos, first, ofirst)
				}
				live = append(live, oc)
				refs = append(refs, e)
			case 1: // drop
				if len(live) == 0 {
					continue
				}
				i := pick()
				addr, last := cs.drop(refs[i])
				oc := live[i]
				if olast := o.drop(oc); addr != oc.addr || last != olast {
					t.Fatalf("pos %d: drop = (%d,%v), oracle (%d,%v)", pos, addr, last, oc.addr, olast)
				}
				live = append(live[:i], live[i+1:]...)
				refs = append(refs[:i], refs[i+1:]...)
			case 2: // pushWaiter
				if len(live) == 0 {
					continue
				}
				i := pick()
				wt := waiter{wg: gpu.WGID(next() % 16), class: OpClass(next() % 2)}
				cs.pushWaiter(refs[i], wt)
				live[i].ws = append(live[i].ws, wt)
			case 3: // popWaiter (oldest)
				if len(live) == 0 {
					continue
				}
				i := pick()
				oc := live[i]
				if len(oc.ws) == 0 {
					continue
				}
				if got := cs.popWaiter(refs[i]); got != oc.ws[0] {
					t.Fatalf("pos %d: popWaiter = %+v, oracle %+v", pos, got, oc.ws[0])
				}
				oc.ws = oc.ws[1:]
			case 4: // shedTailWaiter (youngest)
				if len(live) == 0 {
					continue
				}
				i := pick()
				oc := live[i]
				if len(oc.ws) == 0 {
					continue
				}
				if got := cs.shedTailWaiter(refs[i]); got != oc.ws[len(oc.ws)-1] {
					t.Fatalf("pos %d: shedTailWaiter = %+v, oracle %+v", pos, got, oc.ws[len(oc.ws)-1])
				}
				oc.ws = oc.ws[:len(oc.ws)-1]
			case 5: // removeWaiter by WG (first match)
				if len(live) == 0 {
					continue
				}
				i := pick()
				oc := live[i]
				wg := gpu.WGID(next() % 16)
				want := false
				for j, wt := range oc.ws {
					if wt.wg == wg {
						oc.ws = append(oc.ws[:j], oc.ws[j+1:]...)
						want = true
						break
					}
				}
				if got := cs.removeWaiter(refs[i], wg); got != want {
					t.Fatalf("pos %d: removeWaiter(%d) = %v, oracle %v", pos, wg, got, want)
				}
			case 6: // clearWaiters
				if len(live) == 0 {
					continue
				}
				i := pick()
				oc := live[i]
				if got := cs.clearWaiters(refs[i]); got != len(oc.ws) {
					t.Fatalf("pos %d: clearWaiters = %d, oracle %d", pos, got, len(oc.ws))
				}
				oc.ws = nil
			case 7: // find probe on an arbitrary tag
				si := int(next()) % sets
				addr := mem.Addr(next()%6) * 4
				want := int64(next() % 3)
				cmp := gpu.Cmp(next() % 2)
				e := cs.find(si, addr, want, cmp)
				found := false
				for _, oc := range o.sets[si] {
					if oc.addr == addr && oc.want == want && oc.cmp == cmp {
						found = true
						break
					}
				}
				if (e != nilRef) != found {
					t.Fatalf("pos %d: find(%d,%d,%d,%v) = %d, oracle found=%v", pos, si, addr, want, cmp, e, found)
				}
			}
			checkMirror(t, &cs, &o, live, refs)
		}
	})
}
