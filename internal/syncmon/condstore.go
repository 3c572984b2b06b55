package syncmon

import (
	"awgsim/internal/gpu"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// nilRef marks an empty slab link.
const nilRef int32 = -1

// condSlot is one slab-resident condition-cache entry: the (addr, want,
// cmp) tag, its resident set, the intrusive registration-order chain of
// conditions on the same address, and an intrusive FIFO waiter list.
type condSlot struct {
	addr mem.Addr
	want int64
	cmp  gpu.Cmp
	set  int32 // resident set index

	addrNext int32 // next condition on the same address (registration order)

	wHead, wTail int32 // waiter list, FIFO
	wLen         int32

	next int32 // freelist link while unallocated
}

// waiterSlot is one waiting-WG list node.
type waiterSlot struct {
	wt   waiter
	next int32
}

// addrState is the per-address record of the open-addressed index: the
// head/tail of the address's condition chain and the condition count (the
// monitored-bit refcount — present in the index means monitored).
type addrState struct {
	head, tail int32
	count      int32
}

// condStore is the SyncMon condition cache's storage: a condition slab with
// flat per-set occupancy arrays, a waiter slab, and an open-addressed
// address index. The set arrays are built on the first insert, and the
// slabs and index grow as a run touches them, so a run that never
// registers a condition allocates none of them; set occupancy (Sets x
// Ways, the paper's cache geometry) bounds the condition slab and the
// SyncMon's waiter count bounds the waiter slab. Every list is intrusive
// and freelist-backed: once the slabs have grown, registering, waking and
// evicting touch no allocator and no Go map, and every order the old
// map-based representation exposed (set scan order, per-address
// registration order, waiter FIFO) is preserved by construction.
type condStore struct {
	sets   int
	stride int     // ways per set at construction (Degrade only shrinks use)
	setEnt []int32 // sets x stride resident refs, insertion order; nil until the first insert
	setLen []int32 // nil until the first insert

	ents    []condSlot
	freeEnt int32

	wnodes []waiterSlot
	freeW  int32

	byAddr hashutil.Flat[mem.Addr, addrState]
}

func newCondStore(sets, ways int) condStore {
	return condStore{
		sets:    sets,
		stride:  ways,
		freeEnt: nilRef,
		freeW:   nilRef,
		byAddr: hashutil.NewFlat[mem.Addr, addrState](64, func(a mem.Addr) uint64 {
			return hashutil.Mix64(uint64(a))
		}),
	}
}

// at returns the slot for ref e. A ref stays valid for the slot's
// lifetime, but the pointer only until the next insert, whose append may
// move the slab; no caller holds one across an insert.
func (cs *condStore) at(e int32) *condSlot { return &cs.ents[e] }

// setSize reports set si's occupancy.
func (cs *condStore) setSize(si int) int {
	if cs.setLen == nil {
		return 0
	}
	return int(cs.setLen[si])
}

// find scans set si in insertion order for (addr, want, cmp).
func (cs *condStore) find(si int, addr mem.Addr, want int64, cmp gpu.Cmp) int32 {
	base := si * cs.stride
	for i, n := 0, cs.setSize(si); i < n; i++ {
		e := cs.setEnt[base+i]
		c := &cs.ents[e]
		if c.addr == addr && c.want == want && c.cmp == cmp {
			return e
		}
	}
	return nilRef
}

// insert allocates a condition in set si (which must have room) and links
// it at the tail of its address chain; firstOnAddr reports whether this
// made the address monitored.
func (cs *condStore) insert(si int, addr mem.Addr, want int64, cmp gpu.Cmp) (e int32, firstOnAddr bool) {
	if cs.setLen == nil {
		cs.setEnt = make([]int32, cs.sets*cs.stride)
		cs.setLen = make([]int32, cs.sets)
	}
	if cs.freeEnt != nilRef {
		e = cs.freeEnt
		cs.freeEnt = cs.ents[e].next
	} else {
		cs.ents = append(cs.ents, condSlot{})
		e = int32(len(cs.ents) - 1)
	}
	cs.ents[e] = condSlot{addr: addr, want: want, cmp: cmp, set: int32(si),
		addrNext: nilRef, wHead: nilRef, wTail: nilRef}
	cs.setEnt[si*cs.stride+int(cs.setLen[si])] = e
	cs.setLen[si]++
	st := cs.byAddr.Put(addr)
	if st.count == 0 {
		st.head, st.tail = e, e
		firstOnAddr = true
	} else {
		cs.ents[st.tail].addrNext = e
		st.tail = e
	}
	st.count++
	return e, firstOnAddr
}

// drop removes condition e from its set (preserving set order) and its
// address chain, frees any remaining waiter nodes, and returns the entry's
// address plus whether the address just lost its last condition.
func (cs *condStore) drop(e int32) (addr mem.Addr, lastOnAddr bool) {
	c := &cs.ents[e]
	addr = c.addr
	// Splice out of the set, shifting later (younger) ways down.
	base := int(c.set) * cs.stride
	n := int(cs.setLen[c.set])
	for i := 0; i < n; i++ {
		if cs.setEnt[base+i] == e {
			copy(cs.setEnt[base+i:base+n-1], cs.setEnt[base+i+1:base+n])
			break
		}
	}
	cs.setLen[c.set]--
	// Unlink from the address chain.
	st := cs.byAddr.Ref(addr)
	if st.head == e {
		st.head = c.addrNext
		if st.tail == e {
			st.tail = nilRef
		}
	} else {
		prev := st.head
		for cs.ents[prev].addrNext != e {
			prev = cs.ents[prev].addrNext
		}
		cs.ents[prev].addrNext = c.addrNext
		if st.tail == e {
			st.tail = prev
		}
	}
	st.count--
	if st.count == 0 {
		cs.byAddr.Delete(addr)
		lastOnAddr = true
	}
	// Free any waiter nodes still chained (eviction paths clear them
	// first; normal drops happen at wLen == 0).
	for w := c.wHead; w != nilRef; {
		nx := cs.wnodes[w].next
		cs.wnodes[w].next = cs.freeW
		cs.freeW = w
		w = nx
	}
	c.wHead, c.wTail, c.wLen = nilRef, nilRef, 0
	c.next = cs.freeEnt
	cs.freeEnt = e
	return addr, lastOnAddr
}

// firstOnAddr returns the first condition registered on addr, nilRef when the
// address is unmonitored. The chain continues through addrNext in
// registration order.
func (cs *condStore) firstOnAddr(addr mem.Addr) int32 {
	st := cs.byAddr.Ref(addr)
	if st == nil {
		return nilRef
	}
	return st.head
}

// monitoredAddrs reports how many distinct addresses hold conditions.
func (cs *condStore) monitoredAddrs() int { return cs.byAddr.Len() }

// pushWaiter appends wt to e's FIFO waiter list.
func (cs *condStore) pushWaiter(e int32, wt waiter) {
	var w int32
	if cs.freeW != nilRef {
		w = cs.freeW
		cs.freeW = cs.wnodes[w].next
	} else {
		cs.wnodes = append(cs.wnodes, waiterSlot{})
		w = int32(len(cs.wnodes) - 1)
	}
	cs.wnodes[w] = waiterSlot{wt: wt, next: nilRef}
	c := &cs.ents[e]
	if c.wTail == nilRef {
		c.wHead = w
	} else {
		cs.wnodes[c.wTail].next = w
	}
	c.wTail = w
	c.wLen++
}

// popWaiter removes and returns e's oldest waiter.
func (cs *condStore) popWaiter(e int32) waiter {
	c := &cs.ents[e]
	w := c.wHead
	wt := cs.wnodes[w].wt
	c.wHead = cs.wnodes[w].next
	if c.wHead == nilRef {
		c.wTail = nilRef
	}
	c.wLen--
	cs.wnodes[w].next = cs.freeW
	cs.freeW = w
	return wt
}

// shedTailWaiter removes and returns e's youngest waiter (fault-injection
// eviction sheds newest-first).
func (cs *condStore) shedTailWaiter(e int32) waiter {
	c := &cs.ents[e]
	w := c.wTail
	wt := cs.wnodes[w].wt
	if c.wHead == w {
		c.wHead, c.wTail = nilRef, nilRef
	} else {
		prev := c.wHead
		for cs.wnodes[prev].next != w {
			prev = cs.wnodes[prev].next
		}
		cs.wnodes[prev].next = nilRef
		c.wTail = prev
	}
	c.wLen--
	cs.wnodes[w].next = cs.freeW
	cs.freeW = w
	return wt
}

// removeWaiter unlinks the first waiter for wg from e, reporting whether
// it was present.
func (cs *condStore) removeWaiter(e int32, wg gpu.WGID) bool {
	c := &cs.ents[e]
	prev := nilRef
	for w := c.wHead; w != nilRef; w = cs.wnodes[w].next {
		if cs.wnodes[w].wt.wg != wg {
			prev = w
			continue
		}
		if prev == nilRef {
			c.wHead = cs.wnodes[w].next
		} else {
			cs.wnodes[prev].next = cs.wnodes[w].next
		}
		if c.wTail == w {
			c.wTail = prev
		}
		c.wLen--
		cs.wnodes[w].next = cs.freeW
		cs.freeW = w
		return true
	}
	return false
}

// clearWaiters frees e's whole waiter list without delivering anyone,
// returning how many were dropped; eviction paths collect the waiters
// themselves before calling this.
func (cs *condStore) clearWaiters(e int32) int {
	c := &cs.ents[e]
	n := int(c.wLen)
	for w := c.wHead; w != nilRef; {
		nx := cs.wnodes[w].next
		cs.wnodes[w].next = cs.freeW
		cs.freeW = w
		w = nx
	}
	c.wHead, c.wTail, c.wLen = nilRef, nilRef, 0
	return n
}
