package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/syncmon"
)

func classes(rmw, load int) []syncmon.OpClass {
	var out []syncmon.OpClass
	for i := 0; i < load; i++ {
		out = append(out, syncmon.ClassLoad)
	}
	for i := 0; i < rmw; i++ {
		out = append(out, syncmon.ClassRMW)
	}
	return out
}

func TestResumeAll(t *testing.T) {
	s := ResumeAll{}
	if got := s.Select(0, 0, classes(3, 4)); got != 7 {
		t.Fatalf("ResumeAll.Select = %d, want 7", got)
	}
	s.ObserveUpdate(0, 1) // no-ops must not panic
	s.AddressUnmonitored(0)
}

func TestResumeOne(t *testing.T) {
	s := ResumeOne{}
	if got := s.Select(0, 0, classes(5, 5)); got != 1 {
		t.Fatalf("ResumeOne.Select = %d, want 1", got)
	}
}

func TestOracle(t *testing.T) {
	o := Oracle{}
	// Pure RMW contention (mutex): exactly one.
	if got := o.Select(0, 0, classes(5, 0)); got != 1 {
		t.Fatalf("pure RMW: %d, want 1", got)
	}
	// Pure load waiters (barrier): all.
	if got := o.Select(0, 0, classes(0, 6)); got != 6 {
		t.Fatalf("pure load: %d, want 6", got)
	}
	// Mixed: loads + one RMW contender.
	if got := o.Select(0, 0, classes(3, 4)); got != 5 {
		t.Fatalf("mixed: %d, want 5", got)
	}
}

func TestOracleNeverExceedsWaiters(t *testing.T) {
	f := func(rmw, load uint8) bool {
		r, l := int(rmw%16), int(load%16)
		if r+l == 0 {
			return true
		}
		n := Oracle{}.Select(0, 0, classes(r, l))
		return n >= 1 && n <= r+l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorMutexPattern(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	addr := mem.Addr(0x1000)
	// A lock toggles between two values: resume one.
	for i := 0; i < 50; i++ {
		p.ObserveUpdate(addr, int64(i%2))
	}
	if got := p.Select(addr, 0, classes(8, 0)); got != 1 {
		t.Fatalf("mutex pattern: Select = %d, want 1", got)
	}
	if p.PredictedOne == 0 {
		t.Fatal("PredictedOne not counted")
	}
}

func TestPredictorBarrierPattern(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	addr := mem.Addr(0x2000)
	// A barrier counter sweeps many values: resume all.
	for i := 1; i <= 8; i++ {
		p.ObserveUpdate(addr, int64(i))
	}
	if got := p.Select(addr, 8, classes(0, 7)); got != 7 {
		t.Fatalf("barrier pattern: Select = %d, want 7 (uniques=%d)",
			got, p.UniqueUpdates(addr))
	}
	if p.PredictedAll == 0 {
		t.Fatal("PredictedAll not counted")
	}
}

func TestPredictorSingleWaiter(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	if got := p.Select(0x10, 0, classes(1, 0)); got != 1 {
		t.Fatalf("single waiter: %d, want 1", got)
	}
	if got := p.Select(0x10, 0, nil); got != 0 {
		t.Fatalf("no waiters: %d, want 0", got)
	}
	// Neither case should count as a prediction.
	if p.PredictedAll+p.PredictedOne != 0 {
		t.Fatal("trivial selects counted as predictions")
	}
}

func TestPredictorReset(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	addr := mem.Addr(0x3000)
	for i := 1; i <= 8; i++ {
		p.ObserveUpdate(addr, int64(i))
	}
	p.AddressUnmonitored(addr)
	if p.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", p.Resets)
	}
	if got := p.UniqueUpdates(addr); got != 0 {
		t.Fatalf("uniques after reset = %d, want 0", got)
	}
	// Post-reset, a two-value pattern predicts one again.
	p.ObserveUpdate(addr, 0)
	p.ObserveUpdate(addr, 1)
	if got := p.Select(addr, 0, classes(4, 0)); got != 1 {
		t.Fatalf("after reset: Select = %d, want 1", got)
	}
}

func TestPredictorConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-filter predictor accepted")
		}
	}()
	NewPredictor(PredictorConfig{Filters: 0, BloomBits: 24, BloomK: 6})
}

func TestStallPredictorDefaults(t *testing.T) {
	s := NewStallPredictor(100, 5000)
	if got := s.Predict(0x10); got != 5000 {
		t.Fatalf("no-history prediction = %d, want the 5000 max", got)
	}
}

func TestStallPredictorClamps(t *testing.T) {
	s := NewStallPredictor(100, 5000)
	s.Record(0x10, 10)
	if got := s.Predict(0x10); got != 100 {
		t.Fatalf("tiny history predicted %d, want clamp to 100", got)
	}
	s.Record(0x20, 1_000_000)
	if got := s.Predict(0x20); got != 5000 {
		t.Fatalf("huge history predicted %d, want clamp to 5000", got)
	}
}

func TestStallPredictorEWMATracks(t *testing.T) {
	s := NewStallPredictor(1, 1_000_000)
	for i := 0; i < 50; i++ {
		s.Record(0x30, 2000)
	}
	got := s.Predict(0x30)
	if got < 1900 || got > 2100 {
		t.Fatalf("EWMA of constant 2000 predicted %d", got)
	}
	// Shift the regime; the EWMA must follow.
	for i := 0; i < 50; i++ {
		s.Record(0x30, 8000)
	}
	got = s.Predict(0x30)
	if got < 7000 {
		t.Fatalf("EWMA stuck at %d after regime change to 8000", got)
	}
}

func TestStallPredictorSwappedBounds(t *testing.T) {
	s := NewStallPredictor(5000, 100) // swapped: must normalize
	s.Record(0x40, 1)
	if got := s.Predict(0x40); got != 100 {
		t.Fatalf("prediction %d with swapped bounds, want 100", got)
	}
}

func TestStallPredictorPerAddressIsolation(t *testing.T) {
	s := NewStallPredictor(1, event.Cycle(1)<<40)
	s.Record(0xA0, 100)
	s.Record(0xB0, 9000)
	if a, b := s.Predict(0xA0), s.Predict(0xB0); a >= b {
		t.Fatalf("addresses leaked: %d vs %d", a, b)
	}
}

// eagerPredictor is the lazy Predictor's oracle: the same prediction rule
// over every filter built up front, as the hardware holds them.
type eagerPredictor struct {
	index            hashutil.Universal
	counters         []*hashutil.UniqueCounter
	all, one, resets uint64
}

func newEagerPredictor(cfg PredictorConfig) *eagerPredictor {
	o := &eagerPredictor{index: hashutil.NewUniversal(cfg.Seed, cfg.Filters)}
	for i := 0; i < cfg.Filters; i++ {
		o.counters = append(o.counters, hashutil.NewUniqueCounter(cfg.BloomBits, cfg.BloomK, cfg.Seed+uint64(i)))
	}
	return o
}

func (o *eagerPredictor) counter(addr mem.Addr) *hashutil.UniqueCounter {
	return o.counters[o.index.Hash(uint64(addr))]
}

func (o *eagerPredictor) selectN(addr mem.Addr, waiters int) int {
	switch {
	case waiters <= 1:
		return waiters
	case o.counter(addr).Count() > 2:
		o.all++
		return waiters
	default:
		o.one++
		return 1
	}
}

// predictorStream drives one seeded update/select/unmonitor stream through
// the lazy predictor and the eager oracle, comparing them after every op.
func predictorStream(t *testing.T, p *Predictor, o *eagerPredictor, seed uint64, steps int) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < steps; i++ {
		addr := mem.Addr(r.IntN(24)) << 6
		switch op := r.IntN(10); {
		case op < 6:
			v := r.Int64N(6)
			p.ObserveUpdate(addr, v)
			o.counter(addr).Observe(uint64(v))
		case op < 9:
			n := r.IntN(5)
			if got, want := p.Select(addr, 0, classes(n, 0)), o.selectN(addr, n); got != want {
				t.Fatalf("seed %d step %d: Select(%#x, %d waiters) = %d, want %d", seed, i, addr, n, got, want)
			}
		default:
			p.AddressUnmonitored(addr)
			o.counter(addr).Reset()
			o.resets++
		}
		if got, want := p.UniqueUpdates(addr), o.counter(addr).Count(); got != want {
			t.Fatalf("seed %d step %d: UniqueUpdates(%#x) = %d, want %d", seed, i, addr, got, want)
		}
		if p.PredictedAll != o.all || p.PredictedOne != o.one || p.Resets != o.resets {
			t.Fatalf("seed %d step %d: counters all/one/resets %d/%d/%d, want %d/%d/%d", seed, i,
				p.PredictedAll, p.PredictedOne, p.Resets, o.all, o.one, o.resets)
		}
	}
}

// TestPredictorMatchesEagerFilters: building filters on first touch must
// not change a bit or a count against all 512 filters built up front with
// the same seeds, over streams that leave some filters unbuilt.
func TestPredictorMatchesEagerFilters(t *testing.T) {
	cfg := DefaultPredictorConfig()
	for seed := uint64(1); seed <= 4; seed++ {
		p, o := NewPredictor(cfg), newEagerPredictor(cfg)
		predictorStream(t, p, o, seed, 300)
		if p.PredictedAll == 0 || p.PredictedOne == 0 || p.Resets == 0 {
			t.Fatalf("seed %d: stream exercised all/one/resets %d/%d/%d; every kind must occur",
				seed, p.PredictedAll, p.PredictedOne, p.Resets)
		}
		unbuilt := 0
		for _, c := range p.counters {
			if c == nil {
				unbuilt++
			}
		}
		if unbuilt == 0 || unbuilt == cfg.Filters {
			t.Fatalf("seed %d: %d of %d filters unbuilt; the stream must leave some of each", seed, unbuilt, cfg.Filters)
		}
		predictorStream(t, p, o, seed+100, 300)
	}
}
