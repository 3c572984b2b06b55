// Package kernels contains the synchronization primitive library and the
// benchmark suite: the twelve HeteroSync-style inter-WG synchronization
// microbenchmarks of Table 2 (spin mutexes with and without backoff,
// centralized and decentralized ticket mutexes, two-level tree barriers and
// their local-exchange variants, each in global- and local-scope forms),
// plus the hash-table and bank-account applications the Table 2 caption
// lists.
//
// Every kernel is a register-machine program (internal/prog) assembled in
// ir.go and written like the paper's device code (Figure 10): straight-line
// loops over atomics, with every wait expressed through the IR's
// policy-lowered wait and acquire ops. The same program therefore runs
// unchanged under every scheduling architecture.
package kernels

import (
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
)

// AddrAlloc hands out cache-line-separated addresses for synchronization
// variables and data, so false sharing never pollutes the experiments and
// runs are reproducible.
type AddrAlloc struct {
	next mem.Addr
}

// NewAddrAlloc starts allocating at base.
func NewAddrAlloc(base mem.Addr) *AddrAlloc { return &AddrAlloc{next: base} }

// Word returns a fresh cache-line-aligned word address.
func (a *AddrAlloc) Word() mem.Addr {
	p := a.next
	a.next += 64
	return p
}

// Words returns n fresh line-separated word addresses.
func (a *AddrAlloc) Words(n int) []mem.Addr {
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = a.Word()
	}
	return out
}

// TreeBarrier is the layout of HeteroSync's two-level atomic tree barrier
// (TB/TBEX): WGs of a group count in on a per-group arrival counter, group
// masters count in on a global counter, and waiters poll the counters
// themselves — monotonic targets epoch*size, so the counter's value stream
// is exactly what AWG's Bloom predictor sees for barriers. The LocalExch
// variant (TBEX) scopes the per-group counters locally, servicing them at
// the CU. treeBarrierIR emits the rendezvous.
type TreeBarrier struct {
	LocalCount  []mem.Addr // one per group
	GlobalCount mem.Addr
	LocalScope  gpu.Scope // Global for TB, Local for TBEX
	Groups      int
}

// LocalTargets reports the epoch-th (from 1) arrival and release values of
// a group counter. The counter advances GroupSize+1 per epoch (arrivals
// plus the master's release bump), so targets are monotonic across epochs —
// the value stream AWG's Bloom predictor classifies as barrier-like.
func (b TreeBarrier) LocalTargets(groupSize int, epoch int64) (arrive, release int64) {
	perEpoch := int64(groupSize) + 1
	return (epoch-1)*perEpoch + int64(groupSize), epoch * perEpoch
}
