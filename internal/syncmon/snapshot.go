package syncmon

import (
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// Snapshot/Restore for the SyncMon. The condition slab, waiter slab and set
// arrays are flat POD — PR 5's layout makes a snapshot a handful of slice
// copies with no per-entry work. The observe() scratch slices are excluded:
// their contents never survive a call, so they are allocator state, not
// simulated state.

// Snapshot is a point-in-time copy of a SyncMon's simulated state. It is
// immutable after capture and may be restored any number of times, on the
// monitor that produced it.
type Snapshot struct {
	cfg     Config // Ways/WaitListSize mutate under Degrade
	store   storeSnap
	waiters int
	log     logSnap

	maxConds, maxWaiters, maxMonitored int
	conds                              int
}

// Snapshot captures the monitor's mutable state: the condition cache slabs,
// the waiter count, the Monitor Log ring, the (fault-degradable) geometry
// and the high-water marks.
func (s *SyncMon) Snapshot() *Snapshot {
	return &Snapshot{
		cfg:          s.cfg,
		store:        s.store.snapshot(),
		waiters:      s.waiters,
		log:          s.log.snapshot(),
		maxConds:     s.maxConds,
		maxWaiters:   s.maxWaiters,
		maxMonitored: s.maxMonitored,
		conds:        s.conds,
	}
}

// Restore rewinds the monitor to the snapshot.
func (s *SyncMon) Restore(sn *Snapshot) {
	s.cfg = sn.cfg
	s.store.restore(&sn.store)
	s.waiters = sn.waiters
	s.log.restore(&sn.log)
	s.maxConds, s.maxWaiters, s.maxMonitored = sn.maxConds, sn.maxWaiters, sn.maxMonitored
	s.conds = sn.conds
}

// Bytes estimates the snapshot's memory footprint.
func (sn *Snapshot) Bytes() int {
	return 128 + sn.store.bytes() + sn.log.bytes()
}

// storeSnap is a point-in-time copy of a condStore's slabs and index.
type storeSnap struct {
	setEnt  []int32
	setLen  []int32
	ents    []condSlot
	freeEnt int32
	wnodes  []waiterSlot
	freeW   int32
	byAddr  *hashutil.Flat[mem.Addr, addrState]
}

// snapshot copies the store's slabs; stride is construction-immutable and
// stays on the live store.
func (cs *condStore) snapshot() storeSnap {
	return storeSnap{
		setEnt:  append([]int32(nil), cs.setEnt...),
		setLen:  append([]int32(nil), cs.setLen...),
		ents:    append([]condSlot(nil), cs.ents...),
		freeEnt: cs.freeEnt,
		wnodes:  append([]waiterSlot(nil), cs.wnodes...),
		freeW:   cs.freeW,
		byAddr:  cs.byAddr.Clone(),
	}
}

// restore overwrites the store's slabs from the snapshot. Refs are slab
// indices, so the copies keep every saved link valid; a slab already as
// long as the snapshot's is reused without allocating.
func (cs *condStore) restore(sn *storeSnap) {
	copy(cs.setEnt, sn.setEnt)
	copy(cs.setLen, sn.setLen)
	cs.ents = append(cs.ents[:0], sn.ents...)
	cs.freeEnt = sn.freeEnt
	cs.wnodes = append(cs.wnodes[:0], sn.wnodes...)
	cs.freeW = sn.freeW
	cs.byAddr.CopyFrom(sn.byAddr)
}

func (sn *storeSnap) bytes() int {
	return 4*(len(sn.setEnt)+len(sn.setLen)) + 40*len(sn.ents) +
		24*len(sn.wnodes) + 24*sn.byAddr.Len()
}

// logSnap is a point-in-time copy of the Monitor Log ring. Only the
// occupied span [head, head+size) is stored, unwrapped: every ring reader
// stays inside that span, so slots outside it are dead storage a restore
// can leave stale. ringCap keeps the log's capacity so bytes() reports
// the same footprint a dense copy would, whether or not the live ring has
// been allocated.
type logSnap struct {
	ringCap int
	entries []LogEntry // size entries, unwrapped from head
	dead    []bool
	head    int
	size    int
	live    int
	maxLive int
}

func (l *MonitorLog) snapshot() logSnap {
	sn := logSnap{
		ringCap: l.capacity,
		head:    l.head,
		size:    l.size,
		live:    l.live,
		maxLive: l.maxLive,
	}
	if l.size > 0 {
		sn.entries = make([]LogEntry, l.size)
		sn.dead = make([]bool, l.size)
		for k := 0; k < l.size; k++ {
			idx := (l.head + k) % l.capacity
			sn.entries[k] = l.entries[idx]
			sn.dead[k] = l.dead[idx]
		}
	}
	return sn
}

func (l *MonitorLog) restore(sn *logSnap) {
	if sn.size > 0 {
		l.allocRing()
	}
	for k := 0; k < sn.size; k++ {
		idx := (sn.head + k) % l.capacity
		l.entries[idx] = sn.entries[k]
		l.dead[idx] = sn.dead[k]
	}
	l.head, l.size, l.live, l.maxLive = sn.head, sn.size, sn.live, sn.maxLive
}

func (sn *logSnap) bytes() int { return 33*sn.ringCap + 24 }
