package cp

import (
	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// Snapshot/Restore for the Command Processor. The spill table is flat POD
// slabs plus two open-addressed indices, so a snapshot is a few slice
// copies; the check order is links inside the slab and travels with it.
// The firmware loop continuations (drainFn/checkFn) are hoisted once in
// Start and live on the engine calendar — the engine snapshot carries the
// pending loop events, and the func values themselves are stable, so the
// Processor only records its bookkeeping. The checkPass scratch buffers
// are excluded: nothing in them survives a pass.
//
// The cadence-jitter hook is a func value whose pseudo-random walk lives in
// the Processor's jitterState (the SetCadenceJitter contract), so saving
// the func reference plus the state word replays the exact skew sequence
// after a rewind.

// Snapshot is a point-in-time copy of a Processor's simulated state.
type Snapshot struct {
	tab         tableSnap
	maxTab      int
	jitter      func(state *uint64, base event.Cycle) event.Cycle
	jitterState uint64
}

// Snapshot captures the processor's mutable state.
func (p *Processor) Snapshot() *Snapshot {
	return &Snapshot{
		tab:         p.tab.snapshot(),
		maxTab:      p.maxTab,
		jitter:      p.jitter,
		jitterState: p.jitterState,
	}
}

// Restore rewinds the processor to the snapshot.
func (p *Processor) Restore(sn *Snapshot) {
	p.tab.restore(&sn.tab)
	p.maxTab = sn.maxTab
	p.jitter = sn.jitter
	p.jitterState = sn.jitterState
}

// Bytes estimates the snapshot's memory footprint.
func (sn *Snapshot) Bytes() int {
	return 64 + sn.tab.bytes()
}

// tableSnap is a point-in-time copy of a spillTable.
type tableSnap struct {
	ents         []spillSlot
	freeEnt      int32
	oHead, oTail int32
	wnodes       []wgNode
	freeW        int32
	idx          *hashutil.Flat[condKey, int32]
	addrs        *hashutil.Flat[mem.Addr, int32]
	waiters      int
}

func (t *spillTable) snapshot() tableSnap {
	return tableSnap{
		ents:    append([]spillSlot(nil), t.ents...),
		freeEnt: t.freeEnt,
		oHead:   t.oHead,
		oTail:   t.oTail,
		wnodes:  append([]wgNode(nil), t.wnodes...),
		freeW:   t.freeW,
		idx:     t.idx.Clone(),
		addrs:   t.addrs.Clone(),
		waiters: t.waiters,
	}
}

func (t *spillTable) restore(sn *tableSnap) {
	t.ents = append(t.ents[:0], sn.ents...)
	t.freeEnt = sn.freeEnt
	t.oHead, t.oTail = sn.oHead, sn.oTail
	t.wnodes = append(t.wnodes[:0], sn.wnodes...)
	t.freeW = sn.freeW
	t.idx.CopyFrom(sn.idx)
	t.addrs.CopyFrom(sn.addrs)
	t.waiters = sn.waiters
}

func (sn *tableSnap) bytes() int {
	return 48*len(sn.ents) + 16*len(sn.wnodes) + 32*(sn.idx.Len()+sn.addrs.Len())
}
