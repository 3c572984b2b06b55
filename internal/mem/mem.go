// Package mem models the GPU memory hierarchy from Table 1 of the paper:
// write-through per-CU L1 caches, a shared banked L2 that performs all
// global atomics (GPUs lack ownership coherence, so read-modify-writes are
// serialized at the last-level cache), and a multi-channel DRAM backend.
//
// The package provides two things the rest of the simulator composes:
//
//   - Timing: given an access issued "now", when do its side effects apply
//     at the L2 bank and when does its response reach the compute unit?
//     Bank serialization is what makes busy-wait polling toxic — pollers
//     queue ahead of the very release they are waiting for — and is the
//     mechanism behind the paper's 12x Baseline gap.
//   - Functional state: a word-granularity value store that synchronization
//     variables live in. Values are applied at bank-service time by the
//     caller, so value order always matches bank order.
package mem

import (
	"fmt"

	"awgsim/internal/event"
)

// Addr is a byte address in the simulated global address space.
type Addr uint64

// Config describes the memory hierarchy. The zero value is not usable; use
// DefaultConfig (which encodes Table 1) and override as needed.
type Config struct {
	LineSize int // cache line size in bytes (64 in the paper)

	L1Bytes   int         // per-CU L1 size
	L1Ways    int         // L1 associativity
	L1Latency event.Cycle // CU <-> L1 access latency

	L2Bytes   int         // shared L2 size
	L2Ways    int         // L2 associativity
	L2Latency event.Cycle // one-way CU <-> L2 latency
	L2Banks   int         // independent L2 banks (address-interleaved)

	AtomicService event.Cycle // bank occupancy per atomic read-modify-write

	LocalLatency event.Cycle // CU-scoped (local) atomic one-way latency
	LocalService event.Cycle // per-CU local atomic unit occupancy

	DRAMLatency  event.Cycle // L2 miss penalty to first word
	DRAMChannels int         // independent DRAM channels
	DRAMService  event.Cycle // channel occupancy per 64 B line
}

// DefaultConfig returns the Table 1 baseline hierarchy: 32 KB 16-way L1 at
// 30 cycles, 512 KB 16-way L2 at 50 cycles, DDR3 with 4 channels.
func DefaultConfig() Config {
	return Config{
		LineSize:      64,
		L1Bytes:       32 << 10,
		L1Ways:        16,
		L1Latency:     30,
		L2Bytes:       512 << 10,
		L2Ways:        16,
		L2Latency:     50,
		L2Banks:       16,
		AtomicService: 32,
		LocalLatency:  24,
		LocalService:  16,
		DRAMLatency:   160,
		DRAMChannels:  4,
		DRAMService:   32,
	}
}

func (c Config) validate() error {
	switch {
	case c.LineSize <= 0:
		return fmt.Errorf("mem: line size %d", c.LineSize)
	case c.L1Bytes <= 0 || c.L1Ways <= 0:
		return fmt.Errorf("mem: bad L1 geometry %d/%d", c.L1Bytes, c.L1Ways)
	case c.L2Bytes <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("mem: bad L2 geometry %d/%d", c.L2Bytes, c.L2Ways)
	case c.L2Banks <= 0:
		return fmt.Errorf("mem: need at least one L2 bank")
	case c.DRAMChannels <= 0:
		return fmt.Errorf("mem: need at least one DRAM channel")
	}
	return nil
}

// Stats aggregates the hierarchy's activity counters for the experiment
// harnesses.
type Stats struct {
	Atomics        uint64 // global atomics performed at the L2
	LocalAtomics   uint64 // CU-scoped atomics
	Loads, Stores  uint64
	L1Hits, L1Miss uint64
	L2Hits, L2Miss uint64
	DRAMLines      uint64 // lines transferred to/from DRAM
	ContextBytes   uint64 // WG context save/restore traffic
	BankWait       uint64 // total cycles atomics spent queued at banks
	Arms           uint64 // wait-instruction arms sent to the SyncMon
}

// System is the timing + functional model of the hierarchy.
type System struct {
	cfg    Config
	eng    *event.Engine
	values *wordStore

	l1 []*Cache // one per CU
	l2 *Cache

	bankFree  []event.Cycle // next free cycle per L2 bank
	localFree []event.Cycle // next free cycle per CU local atomic unit
	chanFree  []event.Cycle // next free cycle per DRAM channel

	// Precomputed bank interleaving for power-of-two geometry: the bank
	// selector runs once per atomic, so the Table 1 defaults (64 B lines,
	// 16 banks) take the shift/mask path.
	lineShift uint
	bankMask  uint64
	pow2Banks bool

	stats Stats
}

// NewSystem builds a hierarchy for numCUs compute units on the given engine.
func NewSystem(cfg Config, eng *event.Engine, numCUs int) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if numCUs <= 0 {
		return nil, fmt.Errorf("mem: numCUs %d", numCUs)
	}
	l2, err := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineSize)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		eng:       eng,
		values:    newWordStore(),
		l2:        l2,
		bankFree:  make([]event.Cycle, cfg.L2Banks),
		localFree: make([]event.Cycle, numCUs),
		chanFree:  make([]event.Cycle, cfg.DRAMChannels),
	}
	if isPow2(cfg.LineSize) && isPow2(cfg.L2Banks) {
		s.pow2Banks = true
		s.lineShift = uint(log2(cfg.LineSize))
		s.bankMask = uint64(cfg.L2Banks - 1)
	}
	s.l1 = make([]*Cache, numCUs)
	for i := range s.l1 {
		if s.l1[i], err = NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineSize); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Config reports the hierarchy configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a snapshot of the activity counters.
func (s *System) Stats() Stats { return s.stats }

// StateBytes estimates the hierarchy's simulated state: the word store's
// directory and one pointer per page, every tag array at its full size,
// and the bank, local-unit and channel reservations.
func (s *System) StateBytes() int {
	n := 64 + 13*s.values.dir.Len() + 24*len(s.values.pages) + 32*len(s.l2.lines)
	for _, c := range s.l1 {
		n += 32 * len(c.lines)
	}
	return n + 8*(len(s.bankFree)+len(s.localFree)+len(s.chanFree))
}

// L2 exposes the shared cache so the SyncMon can pin monitored lines.
func (s *System) L2() *Cache { return s.l2 }

func (s *System) bankOf(a Addr) int {
	if s.pow2Banks {
		return int(uint64(a) >> s.lineShift & s.bankMask)
	}
	return int(uint64(a) / uint64(s.cfg.LineSize) % uint64(s.cfg.L2Banks))
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Read returns the current functional value of the word at a.
func (s *System) Read(a Addr) int64 { return s.values.read(a) }

// Write sets the functional value of the word at a.
func (s *System) Write(a Addr, v int64) { s.values.write(a, v) }

// WordAligned returns the address rounded down to its 8-byte word; the
// value store is word-granular.
func (a Addr) WordAligned() Addr { return a &^ 7 }

// CorruptRange models an uncorrectable ECC burst over the page range
// [page, page+pages): every word of each already-allocated page is
// overwritten with a splitmix64-derived poison pattern (absent pages hold
// no data to corrupt). The fleet layer's ECC recovery then discards the
// machine and re-runs to its checkpoint, so the poisoned values are never
// executed on. Returns the number of words poisoned.
func (s *System) CorruptRange(page uint64, pages int, seed uint64) int {
	return s.values.corruptRange(page, pages, seed)
}

// AtomicTiming computes when an atomic issued now against address a is
// serviced at its L2 bank (applyAt — the instant its read-modify-write and
// any SyncMon checks occur) and when its response reaches the CU (respAt).
// It reserves the bank, so concurrent atomics to the same bank queue behind
// one another.
func (s *System) AtomicTiming(a Addr) (applyAt, respAt event.Cycle) {
	now := s.eng.Now()
	arrive := now + s.cfg.L2Latency
	b := s.bankOf(a)
	start := arrive
	if s.bankFree[b] > start {
		s.stats.BankWait += uint64(s.bankFree[b] - start)
		start = s.bankFree[b]
	}
	applyAt = start + s.cfg.AtomicService
	s.bankFree[b] = applyAt
	s.stats.Atomics++
	// Atomics hit or allocate in the L2; monitored lines are pinned by the
	// SyncMon and never chosen as victims.
	if !s.l2.Access(a, true) {
		s.stats.L2Miss++
		s.stats.DRAMLines++
		applyAt += s.cfg.DRAMLatency
		s.bankFree[b] = applyAt
	} else {
		s.stats.L2Hits++
	}
	respAt = applyAt + s.cfg.L2Latency
	return applyAt, respAt
}

// LocalAtomicTiming is the CU-scoped counterpart of AtomicTiming: the
// operation is serviced at the CU's local synchronization unit rather than
// travelling to the L2, matching HeteroSync's locally scoped variants.
func (s *System) LocalAtomicTiming(cu int, a Addr) (applyAt, respAt event.Cycle) {
	now := s.eng.Now()
	arrive := now + s.cfg.LocalLatency
	start := arrive
	if s.localFree[cu] > start {
		s.stats.BankWait += uint64(s.localFree[cu] - start)
		start = s.localFree[cu]
	}
	applyAt = start + s.cfg.LocalService
	s.localFree[cu] = applyAt
	s.stats.LocalAtomics++
	return applyAt, applyAt + s.cfg.LocalLatency
}

// ArmTiming computes the timing of a wait-instruction arm travelling to
// the SyncMon at the L2: same path and bank occupancy as an atomic, but
// counted separately (arms are not atomic instructions in the paper's
// wait-efficiency metric).
func (s *System) ArmTiming(a Addr) (applyAt, respAt event.Cycle) {
	now := s.eng.Now()
	arrive := now + s.cfg.L2Latency
	b := s.bankOf(a)
	start := arrive
	if s.bankFree[b] > start {
		s.stats.BankWait += uint64(s.bankFree[b] - start)
		start = s.bankFree[b]
	}
	applyAt = start + s.cfg.AtomicService
	s.bankFree[b] = applyAt
	s.stats.Arms++
	return applyAt, applyAt + s.cfg.L2Latency
}

// LoadTiming computes the response time of a (non-atomic) load issued now by
// cu. It updates the cache state: L1 hit, else L2, else DRAM.
func (s *System) LoadTiming(cu int, a Addr) (respAt event.Cycle) {
	now := s.eng.Now()
	s.stats.Loads++
	if s.l1[cu].Access(a, true) {
		s.stats.L1Hits++
		return now + s.cfg.L1Latency
	}
	s.stats.L1Miss++
	if s.l2.Access(a, true) {
		s.stats.L2Hits++
		return now + s.cfg.L1Latency + s.cfg.L2Latency
	}
	s.stats.L2Miss++
	s.stats.DRAMLines++
	return now + s.cfg.L1Latency + s.cfg.L2Latency + s.cfg.DRAMLatency
}

// StoreTiming computes the completion time of a write-through store issued
// now by cu. The store updates L1 (no allocate on miss) and always writes
// through to the L2.
func (s *System) StoreTiming(cu int, a Addr) (respAt event.Cycle) {
	now := s.eng.Now()
	s.stats.Stores++
	if s.l1[cu].Access(a, false) {
		s.stats.L1Hits++
	} else {
		s.stats.L1Miss++
	}
	if s.l2.Access(a, true) {
		s.stats.L2Hits++
		return now + s.cfg.L1Latency + s.cfg.L2Latency
	}
	s.stats.L2Miss++
	s.stats.DRAMLines++
	return now + s.cfg.L1Latency + s.cfg.L2Latency + s.cfg.DRAMLatency
}

// ContextTraffic computes the completion time of moving bytes of WG context
// between the CU and memory (save or restore). Line i goes to channel
// i mod DRAMChannels, and each channel serves its lines back to back from
// when the first can start, so it is booked per channel in closed form; the
// transfer completes when the last line does.
func (s *System) ContextTraffic(bytes int) (doneAt event.Cycle) {
	now := s.eng.Now()
	if bytes <= 0 {
		return now
	}
	lines := (bytes + s.cfg.LineSize - 1) / s.cfg.LineSize
	s.stats.ContextBytes += uint64(bytes)
	s.stats.DRAMLines += uint64(lines)
	doneAt = now
	base := now + s.cfg.L2Latency + s.cfg.DRAMLatency
	per, extra := lines/len(s.chanFree), lines%len(s.chanFree)
	for ch, free := range s.chanFree {
		k := per
		if ch < extra {
			k++
		}
		if k == 0 {
			break // this channel gets no line, nor does any later one
		}
		end := max(free, base) + event.Cycle(k)*s.cfg.DRAMService
		s.chanFree[ch] = end
		doneAt = max(doneAt, end)
	}
	return doneAt
}

// InvalidateCU drops the L1 contents of a CU, as happens when its resident
// state is preempted away in the oversubscribed experiment.
func (s *System) InvalidateCU(cu int) { s.l1[cu].InvalidateAll() }
