package event

import (
	"fmt"
	"sort"
)

// Snapshot/Restore give the engine checkpointing: Snapshot captures the
// clock, the sequence counter, the budget state and every pending calendar
// entry; Restore rewinds the engine to exactly that point. A restored engine
// fires the same events in the same (at, seq) order a never-interrupted one
// would — the foundation of machine-level checkpoints and replays.
//
// Pooled Tasks need special care: a calendar entry's Env slots may reference
// another *pending* Task (the atomic pipeline deposits a bank result into an
// already-scheduled response task), and after a restore those references
// must point at the restored task objects, not the recycled originals. The
// snapshot therefore rewrites *Task Env slots into calendar-entry indices
// and the restore patches them back. A Task referenced from Env but absent
// from the calendar would be a retained task — unsupported by the pooling
// lifecycle — and panics.
//
// The task free list is deliberately NOT part of a snapshot: it is host-side
// allocator state, invisible to the simulation. Restore recycles the
// calendar it discards, so repeated restores stay allocation-light.

// Snapshot is a point-in-time copy of an Engine's simulated state. It is
// immutable after capture and may be restored any number of times, on the
// engine that produced it.
type Snapshot struct {
	now       Cycle
	seq       uint64
	executed  uint64
	budget    uint64
	budgetHit bool
	entries   []savedEntry // pending calendar, sorted by (at, seq)
}

// savedEntry is one serialized calendar entry. tfn is non-nil for pooled
// Task entries; fn for plain closures. ref[k] >= 0 records that Env slot k
// held a *Task reference to the entry at that index.
type savedEntry struct {
	at  Cycle
	seq uint64
	fn  func()
	tfn TaskFunc
	env [4]any
	i   [6]int64
	ref [4]int32
}

// snapEntryBytes approximates one savedEntry's memory footprint for
// Snapshot.Bytes (exact sizing would need unsafe).
const snapEntryBytes = 176

// Now reports the simulated cycle at which the snapshot was taken.
func (s *Snapshot) Now() Cycle { return s.now }

// Pending reports how many calendar entries the snapshot holds.
func (s *Snapshot) Pending() int { return len(s.entries) }

// Bytes estimates the snapshot's memory footprint.
func (s *Snapshot) Bytes() int { return 64 + len(s.entries)*snapEntryBytes }

// Snapshot captures the engine's current state: clock, sequence counter,
// executed-event count, budget state, and every pending calendar entry with
// its original firing order.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		now:       e.now,
		seq:       e.seq,
		executed:  e.executed,
		budget:    e.budget,
		budgetHit: e.budgetHit,
	}
	pend := make([]scheduled, 0, e.Pending())
	for i := range e.near {
		b := &e.near[i]
		pend = append(pend, b.ev[b.pos:]...)
	}
	for i := range e.far {
		b := &e.far[i]
		pend = append(pend, b.ev[b.pos:]...)
	}
	pend = append(pend, e.heap...)
	// (at, seq) is a total order: seq values are unique.
	sort.Slice(pend, func(i, j int) bool { return evLess(&pend[i], &pend[j]) })

	index := make(map[*Task]int32, len(pend))
	for idx := range pend {
		if t := pend[idx].task; t != nil {
			index[t] = int32(idx)
		}
	}
	s.entries = make([]savedEntry, len(pend))
	for idx := range pend {
		ev := &pend[idx]
		se := savedEntry{at: ev.at, seq: ev.seq, fn: ev.fn, ref: [4]int32{-1, -1, -1, -1}}
		if t := ev.task; t != nil {
			se.tfn, se.env, se.i = t.fn, t.Env, t.I
			for k, v := range se.env {
				if tt, ok := v.(*Task); ok {
					j, onCal := index[tt]
					if !onCal {
						panic("event: snapshot found a Task reference to a task not on the calendar")
					}
					se.env[k] = nil
					se.ref[k] = j
				}
			}
		}
		s.entries[idx] = se
	}
	return s
}

// Restore rewinds the engine to the snapshot: the current calendar is
// discarded (its pooled tasks recycled), the clock, sequence counter and
// budget state are rewound, and the snapshot's entries are re-placed with
// their original (at, seq) firing order. Any Stop() in effect is cleared.
func (e *Engine) Restore(s *Snapshot) {
	for i := range e.near {
		e.recycleBucket(&e.near[i], &e.nearHW[i])
	}
	for i := range e.far {
		e.recycleBucket(&e.far[i], &e.farHW[i])
	}
	for i := range e.heap {
		if t := e.heap[i].task; t != nil {
			e.releaseTask(t)
		}
		e.heap[i] = scheduled{}
	}
	e.heap = e.heap[:0]
	e.syncHeapMin()
	e.nearCnt, e.farCnt = 0, 0
	e.nearOcc = [nearSize / 64]uint64{}

	e.now, e.seq, e.executed = s.now, s.seq, s.executed
	e.budget, e.budgetHit = s.budget, s.budgetHit
	e.stopped = false
	e.nearBase = s.now &^ Cycle(nearMask)
	e.nearScan = s.now

	// Materialize tasks first, then patch cross-task Env references, then
	// place. Placement in (at, seq)-sorted order reproduces the original
	// firing order: a one-cycle near bucket receives its entries in seq
	// order, and a far bucket's pour preserves encounter order per cycle.
	tasks := make([]*Task, len(s.entries))
	for idx := range s.entries {
		se := &s.entries[idx]
		if se.tfn == nil {
			continue
		}
		t := e.NewTask(se.tfn)
		t.Env, t.I = se.env, se.i
		tasks[idx] = t
	}
	for idx := range s.entries {
		se := &s.entries[idx]
		if tasks[idx] == nil {
			continue
		}
		for k, r := range se.ref {
			if r >= 0 {
				tasks[idx].Env[k] = tasks[r]
			}
		}
	}
	for idx := range s.entries {
		se := &s.entries[idx]
		e.place(scheduled{at: se.at, seq: se.seq, fn: se.fn, task: tasks[idx]})
	}
}

// recycleBucket returns a bucket's unconsumed tasks to the free list and
// empties it; hw is the bucket's high-water mark.
func (e *Engine) recycleBucket(b *bucket, hw *int32) {
	for i := b.pos; i < len(b.ev); i++ {
		if t := b.ev[i].task; t != nil {
			e.releaseTask(t)
		}
	}
	b.truncate(hw)
}

// ReserveSeqs consumes n sequence numbers without scheduling anything and
// returns the first. fault.Reserve reserves, at machine construction, the
// seqs a construction-time fault arming would consume, so that closures
// inserted later (AtWithSeq) — at device placement or after a migration —
// land in exactly the firing positions that arming gives them; a schedule
// using fewer than n shifts every later seq uniformly, which cannot change
// same-cycle relative order.
func (e *Engine) ReserveSeqs(n int) uint64 {
	base := e.seq + 1
	e.seq += uint64(n)
	return base
}

// AtWithSeq schedules fn at absolute cycle at under a previously reserved
// sequence number, splicing it into the FIFO position it would occupy had
// it been scheduled when the seq was reserved. at must be strictly in the
// future and seq must have been reserved (or otherwise already consumed).
func (e *Engine) AtWithSeq(at Cycle, seq uint64, fn func()) {
	if at <= e.now {
		panic(fmt.Sprintf("event: AtWithSeq at cycle %d not after now %d", at, e.now))
	}
	if seq == 0 || seq > e.seq {
		panic(fmt.Sprintf("event: AtWithSeq seq %d was never reserved (counter %d)", seq, e.seq))
	}
	ev := scheduled{at: at, seq: seq, fn: fn}
	if at >= e.nearBase {
		if at-e.nearBase < nearSize {
			i := at & nearMask
			e.near[i].insertBySeq(ev, &e.nearHW[i])
			e.nearOcc[(at&nearMask)>>6] |= 1 << (at & 63)
			e.nearCnt++
			if at < e.nearScan {
				e.nearScan = at
			}
			return
		}
		if (at>>nearBits)-(e.nearBase>>nearBits) <= farSize {
			i := (at >> nearBits) & farMask
			e.far[i].insertBySeq(ev, &e.farHW[i])
			e.farCnt++
			return
		}
	}
	e.heapPush(ev)
}

// insertBySeq splices ev into the bucket's unconsumed region before the
// first same-cycle entry with a greater seq. Bucket lists keep entries of
// equal timestamp in ascending seq order (that is the firing order); entries
// of other timestamps — possible in far buckets — are position-irrelevant.
// hw is the bucket's high-water mark.
func (b *bucket) insertBySeq(ev scheduled, hw *int32) {
	if b.pos > 0 && b.pos == len(b.ev) {
		b.truncate(hw)
	}
	i := b.pos
	for i < len(b.ev) {
		e2 := &b.ev[i]
		if e2.at == ev.at && e2.seq > ev.seq {
			break
		}
		i++
	}
	b.ev = append(b.ev, scheduled{})
	copy(b.ev[i+1:], b.ev[i:])
	b.ev[i] = ev
}
