package core

import (
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// Snapshot/Restore for the predictors. Both are tiny relative to the
// machine — 512 one-word Bloom states plus an EWMA table — so they are
// copied eagerly.

// PredictorSnap is a point-in-time copy of a Predictor's mutable state:
// every counter's filter bits and unique count (zero for an unbuilt
// filter) plus the surfaced counters.
type PredictorSnap struct {
	counters                           []hashutil.CounterState
	predictedAll, predictedOne, resets uint64
}

// Snapshot captures the predictor's mutable state.
func (p *Predictor) Snapshot() *PredictorSnap {
	s := &PredictorSnap{
		counters:     make([]hashutil.CounterState, len(p.counters)),
		predictedAll: p.PredictedAll,
		predictedOne: p.PredictedOne,
		resets:       p.Resets,
	}
	for i, c := range p.counters {
		if c != nil {
			s.counters[i] = c.State()
		}
	}
	return s
}

// Restore rewinds the predictor to the snapshot. A filter still unbuilt
// stays so unless the snapshot holds state for it.
func (p *Predictor) Restore(s *PredictorSnap) {
	for i, st := range s.counters {
		if p.counters[i] != nil || st != (hashutil.CounterState{}) {
			p.build(i).SetState(st)
		}
	}
	p.PredictedAll, p.PredictedOne, p.Resets = s.predictedAll, s.predictedOne, s.resets
}

// Bytes estimates the snapshot's memory footprint.
func (s *PredictorSnap) Bytes() int { return 24 + 16*len(s.counters) }

// StallSnap is a point-in-time copy of a StallPredictor's EWMA table.
type StallSnap struct {
	ewma map[mem.Addr]float64
}

// Snapshot captures the stall predictor's history.
func (s *StallPredictor) Snapshot() *StallSnap {
	sn := &StallSnap{ewma: make(map[mem.Addr]float64, len(s.ewma))}
	for k, v := range s.ewma {
		sn.ewma[k] = v
	}
	return sn
}

// Restore rewinds the stall predictor to the snapshot.
func (s *StallPredictor) Restore(sn *StallSnap) {
	clear(s.ewma)
	for k, v := range sn.ewma {
		s.ewma[k] = v
	}
}

// Bytes estimates the snapshot's memory footprint.
func (sn *StallSnap) Bytes() int { return 48 + 16*len(sn.ewma) }
