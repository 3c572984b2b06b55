// Package core implements the decision logic that distinguishes AWG from
// the simpler monitor architectures in the paper's design space:
//
//   - the resume-count predictor (Section V.A): one counting Bloom filter
//     per monitored address records unique updates; together with the
//     number of waiters per condition it predicts whether to resume all
//     waiters (barrier-like conditions, many unique updates) or one at a
//     time (mutex-like conditions, at most two values toggling);
//   - the stall-time predictor (Section IV.B): an exponential moving
//     average of observed time-to-condition-met per address, used to stall
//     a waiting WG on its CU for a predicted period and context switch out
//     only if the condition is still unmet when the period expires;
//   - the fixed resume selectors (all / one) of MonNR-All and MonNR-One,
//     and the MinResume oracle Figure 9 normalizes against.
package core

import (
	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/syncmon"
)

// ResumeAll resumes every waiter whenever a condition is met: MonR-All,
// MonNR-All, and MonRS-All behaviour.
type ResumeAll struct{}

func (ResumeAll) ObserveUpdate(mem.Addr, int64) {}
func (ResumeAll) AddressUnmonitored(mem.Addr)   {}
func (ResumeAll) Select(_ mem.Addr, _ int64, classes []syncmon.OpClass) int {
	return len(classes)
}

// ResumeOne resumes a single waiter per met condition and keeps monitoring
// it: MonNR-One behaviour. The remaining waiters resume on later matching
// updates or their policy timeout.
type ResumeOne struct{}

func (ResumeOne) ObserveUpdate(mem.Addr, int64) {}
func (ResumeOne) AddressUnmonitored(mem.Addr)   {}
func (ResumeOne) Select(mem.Addr, int64, []syncmon.OpClass) int {
	return 1
}

// Oracle is the MinResume configuration of Figure 9: it never resumes a WG
// unnecessarily. Load-class waiters (barrier arrivals, ticket holders) all
// succeed once their condition holds, so all of them resume; RMW-class
// waiters contend for a single acquire, so exactly one resumes.
type Oracle struct{}

func (Oracle) ObserveUpdate(mem.Addr, int64) {}
func (Oracle) AddressUnmonitored(mem.Addr)   {}
func (Oracle) Select(_ mem.Addr, _ int64, classes []syncmon.OpClass) int {
	n := 0
	for _, c := range classes {
		if c == syncmon.ClassLoad {
			n++
		}
	}
	if n == 0 {
		return 1 // pure RMW contention: hand off to exactly one
	}
	if n < len(classes) {
		// Mixed: resume the load-class waiters plus one RMW contender.
		return n + 1
	}
	return n
}

// PredictorConfig sizes the AWG resume predictor: 512 Bloom filters of 24
// bits with 6 hash functions each (Section V.C).
type PredictorConfig struct {
	Filters   int
	BloomBits int
	BloomK    int
	Seed      uint64
}

// DefaultPredictorConfig matches the paper's hardware budget (1.5 KB).
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{Filters: 512, BloomBits: 24, BloomK: 6, Seed: 0xb100f}
}

// Predictor is AWG's resume-count predictor. Per the paper: resume all
// waiters when a condition has more than one waiter and its address has
// seen more than two unique updates (a barrier counter sweeping values);
// resume one by one when there are multiple waiters but at most two unique
// updates (a mutex toggling locked/unlocked).
//
// The modelled hardware holds all cfg.Filters filters at once; the host
// builds filter i on the first update that lands on it. An unbuilt filter
// reads exactly as a built, empty one: a count of 0 and all-zero state.
// Filter i is seeded cfg.Seed+i whenever it is built, so a run's bits and
// counts do not depend on which filters were touched first.
type Predictor struct {
	cfg      PredictorConfig
	counters []*hashutil.UniqueCounter // nil until the filter's first update
	index    hashutil.Universal

	// Counters the policy layer surfaces into the run result.
	PredictedAll, PredictedOne, Resets uint64
}

// NewPredictor builds the predictor. Its filters are built on first use.
func NewPredictor(cfg PredictorConfig) *Predictor {
	if cfg.Filters <= 0 {
		panic("core: predictor needs at least one filter")
	}
	if cfg.BloomBits <= 0 || cfg.BloomBits > 64 || cfg.BloomK <= 0 {
		panic("core: predictor filters need 1-64 bits and at least one hash")
	}
	return &Predictor{
		cfg:      cfg,
		counters: make([]*hashutil.UniqueCounter, cfg.Filters),
		index:    hashutil.NewUniversal(cfg.Seed, cfg.Filters),
	}
}

// filter returns addr's filter index.
func (p *Predictor) filter(addr mem.Addr) int { return p.index.Hash(uint64(addr)) }

// build returns filter i, building it if this is its first use.
func (p *Predictor) build(i int) *hashutil.UniqueCounter {
	c := p.counters[i]
	if c == nil {
		c = hashutil.NewUniqueCounter(p.cfg.BloomBits, p.cfg.BloomK, p.cfg.Seed+uint64(i))
		p.counters[i] = c
	}
	return c
}

// count reports addr's unique-update count; an unbuilt filter has seen
// none.
func (p *Predictor) count(addr mem.Addr) int {
	if c := p.counters[p.filter(addr)]; c != nil {
		return c.Count()
	}
	return 0
}

// ObserveUpdate records an update's value in the address's Bloom filter.
func (p *Predictor) ObserveUpdate(addr mem.Addr, newVal int64) {
	p.build(p.filter(addr)).Observe(uint64(newVal))
}

// Select implements the paper's prediction rule.
func (p *Predictor) Select(addr mem.Addr, _ int64, classes []syncmon.OpClass) int {
	waiters := len(classes)
	if waiters <= 1 {
		return waiters
	}
	if p.count(addr) > 2 {
		p.PredictedAll++
		return waiters
	}
	p.PredictedOne++
	return 1
}

// AddressUnmonitored resets the address's Bloom filter, per the paper:
// "once a condition has been met, all waiting WGs have resumed, and the
// address is not monitored, the associated Bloom filter is reset". An
// unbuilt filter is already empty; the reset still counts.
func (p *Predictor) AddressUnmonitored(addr mem.Addr) {
	if c := p.counters[p.filter(addr)]; c != nil {
		c.Reset()
	}
	p.Resets++
}

// UniqueUpdates reports the current unique-update estimate for an address
// (for tests and traces).
func (p *Predictor) UniqueUpdates(addr mem.Addr) int { return p.count(addr) }

// StateBytes estimates the predictor's simulated state: one filter state
// per counter, built or not.
func (p *Predictor) StateBytes() int { return 24 + 16*len(p.counters) }

// StallPredictor estimates how long a WG will wait on a condition at a
// given address, from the history of met conditions there. AWG stalls a
// waiting WG for the predicted period before paying for a context switch
// (Section IV.B: "AWG predicts the stall period by recording the mean
// number of cycles at which conditions are met").
type StallPredictor struct {
	min, max event.Cycle
	ewma     map[mem.Addr]float64
	weight   float64
}

// NewStallPredictor builds a predictor clamping predictions to [min, max].
func NewStallPredictor(min, max event.Cycle) *StallPredictor {
	if min > max {
		min, max = max, min
	}
	return &StallPredictor{
		min:    min,
		max:    max,
		ewma:   make(map[mem.Addr]float64),
		weight: 0.25,
	}
}

// Record notes that a wait on addr lasted d cycles until its condition met.
func (s *StallPredictor) Record(addr mem.Addr, d event.Cycle) {
	prev, ok := s.ewma[addr]
	if !ok {
		s.ewma[addr] = float64(d)
		return
	}
	s.ewma[addr] = prev + s.weight*(float64(d)-prev)
}

// Predict returns the stall period to use for a new wait on addr. Without
// history it returns the maximum (stay resident as long as allowed — the
// optimistic default that avoids needless context switches).
func (s *StallPredictor) Predict(addr mem.Addr) event.Cycle {
	v, ok := s.ewma[addr]
	if !ok {
		return s.max
	}
	c := event.Cycle(v)
	if c < s.min {
		return s.min
	}
	if c > s.max {
		return s.max
	}
	return c
}

// StateBytes estimates the stall predictor's simulated state: its EWMA
// table.
func (s *StallPredictor) StateBytes() int { return 48 + 16*len(s.ewma) }
