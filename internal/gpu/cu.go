package gpu

import (
	"fmt"
	"slices"
)

// Config describes the machine, defaulting to the paper's Table 1 baseline.
type Config struct {
	NumCUs            int // 8
	SIMDsPerCU        int // 2
	SIMDWidth         int // 64
	WavefrontsPerSIMD int // 20
	MaxWGsPerCU       int // occupancy cap; sets L, the WGs per CU of Table 2
	LDSPerCU          int // local data share capacity per CU

	SyncThreadsLatency uint64 // intra-WG barrier cost, cycles
	PollOverhead       uint64 // loop overhead between busy-wait retries
	DispatchLatency    uint64 // dispatcher cost per WG start
	CPLatency          uint64 // CP firmware cost per context switch leg

	MaxCycles      uint64 // hard simulation cap
	ProgressWindow uint64 // deadlock watchdog: max cycles without progress
	// MaxEvents caps total engine events (0 = off): the backstop against
	// zero-delay livelocks that never advance the simulated clock, which
	// neither MaxCycles nor the progress watchdog can terminate.
	MaxEvents uint64
}

// DefaultConfig returns the Table 1 machine: 8 CUs, 2 SIMD units of width
// 64, 20 wavefronts per SIMD, with an occupancy cap of 24 WGs per CU
// (L=24 — HeteroSync launches single-wavefront WGs at high occupancy, so
// the 40 wavefront slots and the LDS pool, not this cap, are the physical
// limits; 24 keeps every benchmark's LDS footprint resident).
func DefaultConfig() Config {
	return Config{
		NumCUs:             8,
		SIMDsPerCU:         2,
		SIMDWidth:          64,
		WavefrontsPerSIMD:  20,
		MaxWGsPerCU:        24,
		LDSPerCU:           64 << 10,
		SyncThreadsLatency: 24,
		PollOverhead:       8,
		DispatchLatency:    100,
		CPLatency:          600,
		MaxCycles:          2_000_000_000,
		ProgressWindow:     4_000_000,
	}
}

func (c Config) validate() error {
	switch {
	case c.NumCUs <= 0:
		return fmt.Errorf("gpu: %d CUs", c.NumCUs)
	case c.SIMDsPerCU <= 0 || c.SIMDWidth <= 0 || c.WavefrontsPerSIMD <= 0:
		return fmt.Errorf("gpu: bad SIMD geometry")
	case c.MaxWGsPerCU <= 0:
		return fmt.Errorf("gpu: occupancy cap %d", c.MaxWGsPerCU)
	case c.LDSPerCU <= 0:
		return fmt.Errorf("gpu: LDS capacity %d", c.LDSPerCU)
	case c.MaxCycles == 0:
		return fmt.Errorf("gpu: zero cycle cap")
	case c.ProgressWindow == 0:
		return fmt.Errorf("gpu: zero progress window")
	}
	return nil
}

// wfSlotsPerCU is the CU's wavefront capacity.
func (c Config) wfSlotsPerCU() int { return c.SIMDsPerCU * c.WavefrontsPerSIMD }

// computeUnit tracks one CU's resource pools. WGs claim a WG slot, their
// wavefront slots, and their LDS allocation while resident.
type computeUnit struct {
	id       CUID
	enabled  bool
	wgSlots  int
	wfSlots  int
	ldsFree  int
	resident []*WG // hosted WGs, unordered
}

func newComputeUnit(id CUID, cfg Config) *computeUnit {
	return &computeUnit{
		id:      id,
		enabled: true,
		wgSlots: cfg.MaxWGsPerCU,
		wfSlots: cfg.wfSlotsPerCU(),
		ldsFree: cfg.LDSPerCU,
	}
}

// canHost reports whether the CU has room for a WG of the given shape.
func (cu *computeUnit) canHost(spec *KernelSpec, simdWidth int) bool {
	return cu.enabled &&
		cu.wgSlots > 0 &&
		cu.wfSlots >= spec.Wavefronts(simdWidth) &&
		cu.ldsFree >= spec.LDSBytes
}

// host claims resources for w. The caller must have checked canHost.
func (cu *computeUnit) host(w *WG, simdWidth int) {
	cu.wgSlots--
	cu.wfSlots -= w.spec.Wavefronts(simdWidth)
	cu.ldsFree -= w.spec.LDSBytes
	cu.resident = append(cu.resident, w)
	w.cu = cu.id
}

// release returns w's resources to the pool.
func (cu *computeUnit) release(w *WG, simdWidth int) {
	i := slices.Index(cu.resident, w)
	if i < 0 {
		panic(fmt.Sprintf("gpu: releasing %v not resident on cu%d", w, cu.id))
	}
	cu.wgSlots++
	cu.wfSlots += w.spec.Wavefronts(simdWidth)
	cu.ldsFree += w.spec.LDSBytes
	last := len(cu.resident) - 1
	cu.resident[i] = cu.resident[last]
	cu.resident[last] = nil
	cu.resident = cu.resident[:last]
	w.cu = NoCU
}
