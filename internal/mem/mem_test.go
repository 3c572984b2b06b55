package mem

import (
	"testing"

	"awgsim/internal/event"
)

func newSys(t *testing.T) (*System, *event.Engine) {
	t.Helper()
	eng := event.New()
	s, err := NewSystem(DefaultConfig(), eng, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// advanceTo runs eng's clock forward to cycle c.
func advanceTo(eng *event.Engine, c event.Cycle) {
	eng.AtTask(c, eng.NewTask(func(*event.Task) {}))
	eng.Run()
}

func TestSystemValidation(t *testing.T) {
	eng := event.New()
	bad := DefaultConfig()
	bad.L2Banks = 0
	if _, err := NewSystem(bad, eng, 8); err == nil {
		t.Fatal("zero-bank config accepted")
	}
	if _, err := NewSystem(DefaultConfig(), eng, 0); err == nil {
		t.Fatal("zero-CU system accepted")
	}
}

func TestValueStoreWordGranularity(t *testing.T) {
	s, _ := newSys(t)
	s.Write(0x100, 42)
	if got := s.Read(0x100); got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
	// Sub-word offsets address the same word.
	if got := s.Read(0x104); got != 42 {
		t.Fatalf("Read(offset 4) = %d, want 42 (same word)", got)
	}
	if got := s.Read(0x108); got != 0 {
		t.Fatalf("Read(next word) = %d, want 0", got)
	}
}

func TestAtomicTimingUncontended(t *testing.T) {
	s, _ := newSys(t)
	cfg := s.Config()
	applyAt, respAt := s.AtomicTiming(0x1000)
	// Cold atomic: L2 travel + bank service + DRAM miss penalty.
	wantApply := cfg.L2Latency + cfg.AtomicService + cfg.DRAMLatency
	if applyAt != wantApply {
		t.Fatalf("cold applyAt = %d, want %d", applyAt, wantApply)
	}
	if respAt != applyAt+cfg.L2Latency {
		t.Fatalf("respAt = %d, want applyAt+%d", respAt, cfg.L2Latency)
	}
}

func TestAtomicSecondAccessHitsL2(t *testing.T) {
	s, eng := newSys(t)
	cfg := s.Config()
	s.AtomicTiming(0x1000)
	// Move past the first atomic's bank reservation.
	advanceTo(eng, 10000)
	applyAt, _ := s.AtomicTiming(0x1000)
	want := eng.Now() + cfg.L2Latency + cfg.AtomicService
	if applyAt != want {
		t.Fatalf("warm applyAt = %d, want %d (no DRAM penalty)", applyAt, want)
	}
}

func TestAtomicBankSerialization(t *testing.T) {
	s, _ := newSys(t)
	cfg := s.Config()
	a := Addr(0x1000)
	// Warm the line so DRAM is out of the picture.
	s.AtomicTiming(a)
	base := Stats{}
	_ = base
	var lastApply event.Cycle
	const n = 10
	for i := 0; i < n; i++ {
		applyAt, _ := s.AtomicTiming(a)
		if applyAt <= lastApply {
			t.Fatalf("atomic %d applied at %d, not after previous %d", i, applyAt, lastApply)
		}
		if lastApply != 0 && applyAt != lastApply+cfg.AtomicService {
			t.Fatalf("atomic %d applied at %d, want back-to-back %d", i, applyAt, lastApply+cfg.AtomicService)
		}
		lastApply = applyAt
	}
	if s.Stats().BankWait == 0 {
		t.Fatal("serialized atomics recorded no bank wait")
	}
}

func TestAtomicsToDifferentBanksDontQueue(t *testing.T) {
	s, eng := newSys(t)
	if s.bankOf(0) == s.bankOf(64) {
		t.Fatal("adjacent lines mapped to same bank")
	}
	// Warm both lines, then let the banks drain.
	s.AtomicTiming(0)
	s.AtomicTiming(64)
	advanceTo(eng, 100000)
	wait0 := s.Stats().BankWait
	// Back-to-back atomics to different banks must proceed in parallel.
	a1, _ := s.AtomicTiming(0)
	a2, _ := s.AtomicTiming(64)
	if a1 != a2 {
		t.Fatalf("different-bank atomics serialized: %d vs %d", a1, a2)
	}
	if s.Stats().BankWait != wait0 {
		t.Fatalf("different-bank atomics recorded bank wait")
	}
}

func TestLoadHierarchy(t *testing.T) {
	s, _ := newSys(t)
	cfg := s.Config()
	a := Addr(0x2000)
	// Cold: L1 + L2 + DRAM.
	if got := s.LoadTiming(0, a); got != cfg.L1Latency+cfg.L2Latency+cfg.DRAMLatency {
		t.Fatalf("cold load = %d", got)
	}
	// Warm: L1 hit.
	if got := s.LoadTiming(0, a); got != cfg.L1Latency {
		t.Fatalf("warm load = %d, want L1 %d", got, cfg.L1Latency)
	}
	// Different CU: misses its own L1 but hits shared L2.
	if got := s.LoadTiming(1, a); got != cfg.L1Latency+cfg.L2Latency {
		t.Fatalf("cross-CU load = %d, want L1+L2", got)
	}
	st := s.Stats()
	if st.L1Hits != 1 || st.L1Miss != 2 {
		t.Fatalf("L1 hits/misses = %d/%d, want 1/2", st.L1Hits, st.L1Miss)
	}
}

func TestStoreWritesThrough(t *testing.T) {
	s, _ := newSys(t)
	a := Addr(0x3000)
	s.StoreTiming(0, a)
	st := s.Stats()
	if st.Stores != 1 {
		t.Fatalf("stores = %d", st.Stores)
	}
	// Write-through: the line is now in L2, so a load from another CU's
	// perspective should be an L2 hit.
	cfg := s.Config()
	if got := s.LoadTiming(1, a); got != cfg.L1Latency+cfg.L2Latency {
		t.Fatalf("load after write-through = %d, want L1+L2 hit", got)
	}
}

func TestLocalAtomicCheaperThanGlobal(t *testing.T) {
	s, _ := newSys(t)
	// Warm the global line first so both are steady-state.
	s.AtomicTiming(0x1000)
	_, gResp := s.AtomicTiming(0x1000)
	_, lResp := s.LocalAtomicTiming(0, 0x9000)
	gCost := gResp - s.Config().L2Latency // remove queue skew from first atomic
	if lResp >= gCost {
		t.Fatalf("local atomic (%d) not cheaper than global (%d)", lResp, gCost)
	}
}

func TestLocalAtomicPerCUSerialization(t *testing.T) {
	s, _ := newSys(t)
	a1, _ := s.LocalAtomicTiming(0, 0x100)
	a2, _ := s.LocalAtomicTiming(0, 0x100)
	if a2 <= a1 {
		t.Fatal("same-CU local atomics did not serialize")
	}
	b1, _ := s.LocalAtomicTiming(1, 0x100)
	if b1 != a1 {
		t.Fatalf("different-CU local atomic queued (%d vs %d)", b1, a1)
	}
}

func TestContextTrafficScalesWithSize(t *testing.T) {
	s, _ := newSys(t)
	small := s.ContextTraffic(2 << 10)
	s2, _ := newSys(t)
	large := s2.ContextTraffic(10 << 10)
	if large <= small {
		t.Fatalf("10KB context (%d) not slower than 2KB (%d)", large, small)
	}
	if s.Stats().ContextBytes != 2<<10 {
		t.Fatalf("context bytes = %d", s.Stats().ContextBytes)
	}
}

func TestContextTrafficZero(t *testing.T) {
	s, eng := newSys(t)
	if got := s.ContextTraffic(0); got != eng.Now() {
		t.Fatalf("zero-byte context transfer took until %d", got)
	}
}

func TestContextTrafficUsesChannels(t *testing.T) {
	// With 4 channels, 8 lines take 2 service slots, not 8.
	s, _ := newSys(t)
	cfg := s.Config()
	done := s.ContextTraffic(8 * cfg.LineSize)
	want := cfg.L2Latency + cfg.DRAMLatency + 2*cfg.DRAMService
	if done != want {
		t.Fatalf("8-line transfer done at %d, want %d", done, want)
	}
}

// perLineContextTraffic is the line-by-line booking that ContextTraffic's
// closed form replaced, kept as its reference: line i queues on channel
// i mod DRAMChannels behind that channel's earlier lines.
func perLineContextTraffic(s *System, bytes int) event.Cycle {
	if bytes <= 0 {
		return s.eng.Now()
	}
	now := s.eng.Now()
	lines := (bytes + s.cfg.LineSize - 1) / s.cfg.LineSize
	s.stats.ContextBytes += uint64(bytes)
	s.stats.DRAMLines += uint64(lines)
	doneAt := now
	for i := 0; i < lines; i++ {
		ch := i % s.cfg.DRAMChannels
		start := now + s.cfg.L2Latency + s.cfg.DRAMLatency
		if s.chanFree[ch] > start {
			start = s.chanFree[ch]
		}
		end := start + s.cfg.DRAMService
		s.chanFree[ch] = end
		if end > doneAt {
			doneAt = end
		}
	}
	return doneAt
}

// TestContextTrafficMatchesPerLine makes the same calls on two systems, one
// booked in closed form and one line by line, at advancing cycles short
// enough that earlier transfers still hold some channels past the DRAM
// base of later ones.
func TestContextTrafficMatchesPerLine(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 255, 256, 257, 9728}
	steps := []event.Cycle{0, 40, 150, 700, 5000, 3}
	for _, chans := range []int{1, 3, 4} {
		for _, svc := range []event.Cycle{0, 32} {
			cfg := DefaultConfig()
			cfg.DRAMChannels, cfg.DRAMService = chans, svc
			eng := event.New()
			got, err := NewSystem(cfg, eng, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSystem(cfg, eng, 1)
			if err != nil {
				t.Fatal(err)
			}
			busy := false
			for i := 0; i < 5*len(sizes); i++ {
				if step := steps[i%len(steps)]; step > 0 {
					advanceTo(eng, eng.Now()+step)
				}
				base := eng.Now() + cfg.L2Latency + cfg.DRAMLatency
				for _, free := range got.chanFree {
					busy = busy || free > base
				}
				bytes := sizes[i*7%len(sizes)]
				g, w := got.ContextTraffic(bytes), perLineContextTraffic(ref, bytes)
				if g != w {
					t.Fatalf("%d channels, service %d, call %d (%d B at %d): done %d, per line %d",
						chans, svc, i, bytes, eng.Now(), g, w)
				}
				for ch := range ref.chanFree {
					if got.chanFree[ch] != ref.chanFree[ch] {
						t.Fatalf("%d channels, service %d, call %d: channel %d free at %d, per line %d",
							chans, svc, i, ch, got.chanFree[ch], ref.chanFree[ch])
					}
				}
				if got.Stats() != ref.Stats() {
					t.Fatalf("%d channels, service %d, call %d: stats %+v, per line %+v",
						chans, svc, i, got.Stats(), ref.Stats())
				}
			}
			if svc > 0 && !busy {
				t.Fatalf("%d channels: no call found a channel busy past its DRAM base", chans)
			}
		}
	}
}

func TestInvalidateCU(t *testing.T) {
	s, _ := newSys(t)
	cfg := s.Config()
	a := Addr(0x4000)
	s.LoadTiming(0, a)
	s.InvalidateCU(0)
	if got := s.LoadTiming(0, a); got != cfg.L1Latency+cfg.L2Latency {
		t.Fatalf("load after invalidate = %d, want L1 miss + L2 hit", got)
	}
}
