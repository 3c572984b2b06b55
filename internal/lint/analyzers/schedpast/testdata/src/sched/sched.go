// Package sched seeds the two schedpast hazard classes: constant-zero
// engine delays and structural mutation of a ranged collection — the
// cp.checkPass bug shape.
package sched

import "awgsim/internal/lint/analyzers/schedpast/testdata/src/event"

type proc struct {
	eng   *event.Engine
	walk  []int64
	table map[int64]int
}

func (p *proc) delays(t *event.Task) {
	p.eng.AfterTask(0, t) // want `Engine\.AfterTask with constant delay 0`
	const cadence event.Cycle = 0
	p.eng.AfterTask(cadence, t) // want `Engine\.AfterTask with constant delay 0`
	p.eng.AfterTask(1, t)       // minimum positive delay: fine
	p.eng.AtTask(0, t)          // AtTask takes an absolute cycle, not a delta
	d := event.Cycle(0)
	p.eng.AfterTask(d, t) // non-constant expression: runtime concern, not this analyzer's
}

// spliceMidWalk is the checkPass hazard verbatim: the ranged slice is
// spliced and iteration continues over stale state.
func (p *proc) spliceMidWalk() {
	for i, id := range p.walk {
		if id == 0 {
			p.walk = append(p.walk[:i], p.walk[i+1:]...) // want `reassigns p\.walk while ranging over it`
		}
	}
}

// spliceThenBreak is the sanctioned variant: the stale iteration state is
// never used again.
func (p *proc) spliceThenBreak() {
	for i, id := range p.walk {
		if id == 1 {
			p.walk = append(p.walk[:i], p.walk[i+1:]...)
			break
		}
	}
}

// snapshotWalk is the other sanctioned fix: walk a copy, splice the real one.
func (p *proc) snapshotWalk(scratch []int64) {
	scratch = append(scratch[:0], p.walk...)
	for i, id := range scratch {
		if id == 2 {
			p.walk = append(p.walk[:i], p.walk[i+1:]...)
		}
	}
}

func (p *proc) mapMutation() {
	for k := range p.table {
		p.table[k+1] = 1   // want `inserts into p\.table while ranging over it`
		p.table[k] = 2     // writing the range key commutes: fine
		delete(p.table, k) // delete during range is defined by the spec: fine
	}
}
