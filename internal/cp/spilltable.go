package cp

import (
	"awgsim/internal/gpu"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// nilRef marks an empty slab link.
const nilRef int32 = -1

// spillSlot is one slab-resident spilled condition. A slot exists exactly
// while its condition has waiters, and while it exists it is linked into
// the table's check order.
type spillSlot struct {
	key condKey

	wHead, wTail int32 // waiters, drain arrival order (FIFO)
	wLen         int32

	oPrev, oNext int32 // check-order links

	next int32 // freelist link while unallocated
}

// wgNode is one waiter list node.
type wgNode struct {
	wg   gpu.WGID
	next int32
}

// spillTable is the CP's in-memory spilled-condition store and the only
// record of which conditions are spilled: a slab of condition slots
// indexed by an open-addressed (addr, want, cmp) table, with intrusive
// freelist-backed waiter lists, an intrusive check-order list through the
// slots (the order a check pass walks), and an open-addressed per-address
// condition counter.
type spillTable struct {
	ents         []spillSlot
	freeEnt      int32
	oHead, oTail int32 // check order: conditions by arrival, oldest first

	wnodes []wgNode
	freeW  int32

	idx   hashutil.Flat[condKey, int32]  // key -> 1-based slot ref (0 = fresh)
	addrs hashutil.Flat[mem.Addr, int32] // spilled conditions per address

	waiters int // total waiters
}

func newSpillTable() spillTable {
	hashKey := func(k condKey) uint64 {
		h := hashutil.Mix64(uint64(k.addr))
		h = hashutil.Mix64(h ^ uint64(k.want))
		return hashutil.Mix64(h ^ uint64(k.cmp))
	}
	return spillTable{
		freeEnt: nilRef,
		oHead:   nilRef,
		oTail:   nilRef,
		freeW:   nilRef,
		idx:     hashutil.NewFlat[condKey, int32](64, hashKey),
		addrs: hashutil.NewFlat[mem.Addr, int32](64, func(a mem.Addr) uint64 {
			return hashutil.Mix64(uint64(a))
		}),
	}
}

// conditions reports the spilled conditions (every slot has waiters).
func (t *spillTable) conditions() int { return t.idx.Len() }

// monitoredAddrs reports distinct addresses with spilled conditions.
func (t *spillTable) monitoredAddrs() int { return t.addrs.Len() }

// appendOrder appends every spilled condition to buf in check order.
func (t *spillTable) appendOrder(buf []condKey) []condKey {
	for e := t.oHead; e != nilRef; e = t.ents[e].oNext {
		buf = append(buf, t.ents[e].key)
	}
	return buf
}

func (t *spillTable) lookup(k condKey) int32 {
	p := t.idx.Ref(k)
	if p == nil {
		return nilRef
	}
	return *p - 1
}

// alloc takes a slot for the new condition k and links it at the tail of
// the check order.
func (t *spillTable) alloc(k condKey) int32 {
	var e int32
	if t.freeEnt != nilRef {
		e = t.freeEnt
		t.freeEnt = t.ents[e].next
	} else {
		t.ents = append(t.ents, spillSlot{})
		e = int32(len(t.ents) - 1)
	}
	t.ents[e] = spillSlot{key: k, wHead: nilRef, wTail: nilRef, oPrev: t.oTail, oNext: nilRef}
	if t.oTail == nilRef {
		t.oHead = e
	} else {
		t.ents[t.oTail].oNext = e
	}
	t.oTail = e
	*t.addrs.Put(k.addr)++
	return e
}

// free releases slot e once its condition's last waiter has left,
// unlinking it from the check order, the key index and the address count.
func (t *spillTable) free(e int32) {
	s := &t.ents[e]
	if s.oPrev == nilRef {
		t.oHead = s.oNext
	} else {
		t.ents[s.oPrev].oNext = s.oNext
	}
	if s.oNext == nilRef {
		t.oTail = s.oPrev
	} else {
		t.ents[s.oNext].oPrev = s.oPrev
	}
	t.idx.Delete(s.key)
	p := t.addrs.Ref(s.key.addr)
	*p--
	if *p == 0 {
		t.addrs.Delete(s.key.addr)
	}
	s.next = t.freeEnt
	t.freeEnt = e
}

// addWaiter appends wg to k's waiter list (drain arrival order); a new
// condition joins the tail of the check order.
func (t *spillTable) addWaiter(k condKey, wg gpu.WGID) {
	ref := t.idx.Put(k)
	if *ref == 0 {
		*ref = t.alloc(k) + 1
	}
	s := &t.ents[*ref-1]
	var w int32
	if t.freeW != nilRef {
		w = t.freeW
		t.freeW = t.wnodes[w].next
	} else {
		t.wnodes = append(t.wnodes, wgNode{})
		w = int32(len(t.wnodes) - 1)
	}
	t.wnodes[w] = wgNode{wg: wg, next: nilRef}
	if s.wTail == nilRef {
		s.wHead = w
	} else {
		t.wnodes[s.wTail].next = w
	}
	s.wTail = w
	s.wLen++
	t.waiters++
}

// removeWaiter unlinks wg from k's waiter list (a policy-timeout
// withdrawal), reporting whether it was present.
func (t *spillTable) removeWaiter(k condKey, wg gpu.WGID) bool {
	e := t.lookup(k)
	if e == nilRef {
		return false
	}
	s := &t.ents[e]
	prev := nilRef
	for w := s.wHead; w != nilRef; w = t.wnodes[w].next {
		if t.wnodes[w].wg != wg {
			prev = w
			continue
		}
		if prev == nilRef {
			s.wHead = t.wnodes[w].next
		} else {
			t.wnodes[prev].next = t.wnodes[w].next
		}
		if s.wTail == w {
			s.wTail = prev
		}
		s.wLen--
		t.wnodes[w].next = t.freeW
		t.freeW = w
		t.waiters--
		if s.wLen == 0 {
			t.free(e)
		}
		return true
	}
	return false
}

// dropWaiters removes condition k from the table, appending its waiters to
// buf in FIFO order (the check-met wake path). An absent k appends
// nothing.
func (t *spillTable) dropWaiters(k condKey, buf []gpu.WGID) []gpu.WGID {
	e := t.lookup(k)
	if e == nilRef {
		return buf
	}
	s := &t.ents[e]
	for w := s.wHead; w != nilRef; {
		buf = append(buf, t.wnodes[w].wg)
		nx := t.wnodes[w].next
		t.wnodes[w].next = t.freeW
		t.freeW = w
		w = nx
	}
	t.waiters -= int(s.wLen)
	t.free(e)
	return buf
}
