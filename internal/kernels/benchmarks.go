package kernels

import (
	"fmt"
	"strings"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
)

// Params shapes a benchmark launch. The harness must launch on a machine
// whose scheduling groups match: Groups = NumCUs and WGsPerGroup =
// MaxWGsPerCU (so NumWGs = Groups*WGsPerGroup fills the machine exactly in
// the non-oversubscribed experiment).
type Params struct {
	NumWGs      int
	Groups      int // scheduling groups (the machine's CU count)
	WIsPerWG    int // n in Table 2
	Iters       int // synchronization rounds per WG
	CSWork      event.Cycle
	OutsideWork event.Cycle
}

// DefaultParams fills the Table 1 machine: 192 WGs in 8 groups of 24,
// synchronization-dominated (short work sections), like the HeteroSync
// microbenchmarks.
func DefaultParams() Params {
	return Params{NumWGs: 192, Groups: 8, WIsPerWG: 64, Iters: 10, CSWork: 200, OutsideWork: 200}
}

// WGsPerGroup reports L, the WGs per scheduling group.
func (p Params) WGsPerGroup() int { return p.NumWGs / p.Groups }

func (p Params) validate() error {
	switch {
	case p.NumWGs <= 0 || p.Groups <= 0 || p.WIsPerWG <= 0 || p.Iters <= 0:
		return fmt.Errorf("kernels: non-positive params %+v", p)
	case p.NumWGs%p.Groups != 0:
		return fmt.Errorf("kernels: %d WGs not divisible into %d groups", p.NumWGs, p.Groups)
	}
	return nil
}

// Benchmark couples a kernel with its memory initialization and functional
// validation — the validation is what catches a policy that "wins" by
// corrupting synchronization.
type Benchmark struct {
	Spec   gpu.KernelSpec
	Params Params
	// Init seeds the value store before launch (e.g. unlocking the first
	// queue-mutex slot).
	Init func(write func(mem.Addr, int64))
	// Verify checks post-run memory; it returns an error describing any
	// violated invariant.
	Verify func(read func(mem.Addr) int64) error
}

// Builder constructs a benchmark for the given launch parameters.
type Builder func(p Params) (*Benchmark, error)

// All lists the twelve benchmarks of Figures 14/15 in presentation order.
func All() []string {
	return []string{
		"SPM_G", "SPMBO_G", "FAM_G", "SLM_G",
		"SPM_L", "SPMBO_L", "FAM_L", "SLM_L",
		"TB_LG", "LFTB_LG", "TBEX_LG", "LFTBEX_LG",
	}
}

// Apps lists the application benchmarks from the Table 2 caption.
func Apps() []string { return []string{"HashTable", "BankAccount"} }

// Get returns the builder for a benchmark name. Names carrying
// LitmusPrefix are decoded as litmus patterns rather than looked up: the
// pattern's canonical encoding is its benchmark name, which keeps litmus
// sim.Configs declarative without registering thousands of generated
// patterns.
func Get(name string) (Builder, error) {
	if strings.HasPrefix(name, LitmusPrefix) {
		l, err := DecodeLitmus(name)
		if err != nil {
			return nil, err
		}
		return func(p Params) (*Benchmark, error) { return litmusBench(l, name, p) }, nil
	}
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
	}
	return b, nil
}

// Build is a convenience for Get + Builder.
func Build(name string, p Params) (*Benchmark, error) {
	b, err := Get(name)
	if err != nil {
		return nil, err
	}
	return b(p)
}

var registry = map[string]Builder{
	"SPM_G":       func(p Params) (*Benchmark, error) { return spinMutexBench(p, "SPM_G", gpu.Global, false, 8, 0) },
	"SPMBO_G":     func(p Params) (*Benchmark, error) { return spinMutexBench(p, "SPMBO_G", gpu.Global, true, 10, 0) },
	"FAM_G":       func(p Params) (*Benchmark, error) { return ticketMutexBench(p, "FAM_G", gpu.Global, 12, 0) },
	"SLM_G":       func(p Params) (*Benchmark, error) { return queueMutexBench(p, "SLM_G", gpu.Global, 16, 512) },
	"SPM_L":       func(p Params) (*Benchmark, error) { return spinMutexBench(p, "SPM_L", gpu.Local, false, 8, 1<<10) },
	"SPMBO_L":     func(p Params) (*Benchmark, error) { return spinMutexBench(p, "SPMBO_L", gpu.Local, true, 10, 1<<10) },
	"FAM_L":       func(p Params) (*Benchmark, error) { return ticketMutexBench(p, "FAM_L", gpu.Local, 12, 1<<10) },
	"SLM_L":       func(p Params) (*Benchmark, error) { return queueMutexBench(p, "SLM_L", gpu.Local, 16, 3<<9) },
	"TB_LG":       func(p Params) (*Benchmark, error) { return treeBarrierBench(p, "TB_LG", gpu.Global, 20, 3<<9) },
	"TBEX_LG":     func(p Params) (*Benchmark, error) { return treeBarrierBench(p, "TBEX_LG", gpu.Local, 22, 2<<10) },
	"LFTB_LG":     func(p Params) (*Benchmark, error) { return lfTreeBarrierBench(p, "LFTB_LG", gpu.Global, 24, 2<<10) },
	"LFTBEX_LG":   func(p Params) (*Benchmark, error) { return lfTreeBarrierBench(p, "LFTBEX_LG", gpu.Local, 26, 5<<9) },
	"HashTable":   hashTableBench,
	"BankAccount": bankAccountBench,
	"Semaphore":   semaphoreBench,
	"RWLock":      rwLockBench,
}

// skewedWork returns the i-th round's work for a WG: a deterministic
// spread in [0.5x, 4x] of OutsideWork. Real rounds are imbalanced (memory
// divergence, data-dependent work), and the skew is what makes busy
// waiting expensive at barriers: early arrivals burn issue slots polling
// while the laggards are still computing. Kernels compute it in registers
// (irSkewedWork); this is the reference tests hold that port to.
func skewedWork(p Params, wg int, i int) event.Cycle {
	spread := event.Cycle((wg*2654435761 + i*40503) % 8)
	return p.OutsideWork/2 + p.OutsideWork*spread/2
}

func baseSpec(p Params, name string, vgprs, lds int) gpu.KernelSpec {
	return gpu.KernelSpec{
		Name:       name,
		NumWGs:     p.NumWGs,
		WIsPerWG:   p.WIsPerWG,
		VGPRsPerWI: vgprs,
		SGPRsPerWF: 128,
		LDSBytes:   lds,
	}
}

// spinMutexBench builds SPM/SPMBO in global or local scope: Iters critical
// sections on a shared counter guarded by a test-and-set lock (one lock
// globally, or one per scheduling group for local scope), closed by the
// validation barrier.
func spinMutexBench(p Params, name string, scope gpu.Scope, backoff bool, vgprs, lds int) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x10000)
	nLocks := 1
	if scope == gpu.Local {
		nLocks = p.Groups
	}
	locks := alloc.Words(nLocks)
	counters := alloc.Words(nLocks)
	barCount := alloc.Word()

	spec := baseSpec(p, name, vgprs, lds)
	spec.IR = spinMutexIR(p, scope, backoff, locks, counters, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			per := int64(p.NumWGs * p.Iters)
			if scope == gpu.Local {
				per = int64(p.WGsPerGroup() * p.Iters)
			}
			for i, c := range counters {
				if got := read(c); got != per {
					return fmt.Errorf("%s: counter %d = %d, want %d", name, i, got, per)
				}
			}
			if got := read(barCount); got != int64(p.NumWGs) {
				return fmt.Errorf("%s: exit barrier count %d, want %d", name, got, p.NumWGs)
			}
			return nil
		},
	}, nil
}

// ticketMutexBench builds FAM in global or local scope: the centralized
// fetch-add ticket lock.
func ticketMutexBench(p Params, name string, scope gpu.Scope, vgprs, lds int) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x20000)
	n := 1
	if scope == gpu.Local {
		n = p.Groups
	}
	tails := alloc.Words(n)
	servings := alloc.Words(n)
	counters := alloc.Words(n)
	barCount := alloc.Word()

	spec := baseSpec(p, name, vgprs, lds)
	spec.IR = ticketMutexIR(p, scope, tails, servings, counters, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			per := int64(p.NumWGs * p.Iters)
			if scope == gpu.Local {
				per = int64(p.WGsPerGroup() * p.Iters)
			}
			for i := range counters {
				if got := read(counters[i]); got != per {
					return fmt.Errorf("%s: counter %d = %d, want %d", name, i, got, per)
				}
				if got := read(servings[i]); got != per {
					return fmt.Errorf("%s: serving %d = %d, want %d (unlock count)", name, i, got, per)
				}
			}
			if got := read(barCount); got != int64(p.NumWGs) {
				return fmt.Errorf("%s: exit barrier count %d, want %d", name, got, p.NumWGs)
			}
			return nil
		},
	}, nil
}

// queueMutexBench builds SLM in global or local scope: Figure 10's
// decentralized ticket lock, one queue slot per acquire.
func queueMutexBench(p Params, name string, scope gpu.Scope, vgprs, lds int) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x30000)
	n := 1
	holders := p.NumWGs
	if scope == gpu.Local {
		n = p.Groups
		holders = p.WGsPerGroup()
	}
	counters := alloc.Words(n)
	tailAddrs := make([]mem.Addr, n)
	allSlots := make([][]mem.Addr, n)
	for i := range allSlots {
		allSlots[i] = alloc.Words(holders + 1)
		tailAddrs[i] = alloc.Word()
	}
	barCount := alloc.Word()

	spec := baseSpec(p, name, vgprs, lds)
	spec.IR = queueMutexIR(p, scope, tailAddrs, allSlots, counters, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Init: func(write func(mem.Addr, int64)) {
			for _, slots := range allSlots {
				write(slots[0], 1) // the first ticket may proceed
			}
		},
		Verify: func(read func(mem.Addr) int64) error {
			per := int64(p.NumWGs * p.Iters)
			if scope == gpu.Local {
				per = int64(p.WGsPerGroup() * p.Iters)
			}
			for i, c := range counters {
				if got := read(c); got != per {
					return fmt.Errorf("%s: counter %d = %d, want %d", name, i, got, per)
				}
			}
			if got := read(barCount); got != int64(p.NumWGs) {
				return fmt.Errorf("%s: exit barrier count %d, want %d", name, got, p.NumWGs)
			}
			return nil
		},
	}, nil
}

// treeBarrierBench builds TB/TBEX: Iters rounds of the two-level atomic
// tree barrier with per-round work, validating a per-round token each WG
// accumulates.
func treeBarrierBench(p Params, name string, localScope gpu.Scope, vgprs, lds int) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x40000)
	bar := TreeBarrier{
		LocalCount:  alloc.Words(p.Groups),
		GlobalCount: alloc.Word(),
		LocalScope:  localScope,
		Groups:      p.Groups,
	}
	perWG := alloc.Words(p.NumWGs) // per-round progress tokens

	spec := baseSpec(p, name, vgprs, lds)
	spec.IR = treeBarrierIR(p, localScope, bar.LocalCount, bar.GlobalCount, perWG)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			if got := read(bar.GlobalCount); got != int64(p.Iters*p.Groups) {
				return fmt.Errorf("%s: global count %d, want %d", name, got, p.Iters*p.Groups)
			}
			_, want := bar.LocalTargets(p.WGsPerGroup(), int64(p.Iters))
			for g, lc := range bar.LocalCount {
				if got := read(lc); got != want {
					return fmt.Errorf("%s: group %d count %d, want %d", name, g, got, want)
				}
			}
			for i, a := range perWG {
				if got := read(a); got != int64(p.Iters) {
					return fmt.Errorf("%s: WG %d token %d, want %d", name, i, got, p.Iters)
				}
			}
			return nil
		},
	}, nil
}

// lfTreeBarrierBench builds LFTB/LFTBEX: the decentralized two-level tree
// barrier with one flag per WG.
func lfTreeBarrierBench(p Params, name string, localScope gpu.Scope, vgprs, lds int) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x50000)
	wgFlag := alloc.Words(p.NumWGs)
	groupFlag := alloc.Words(p.Groups)
	perWG := alloc.Words(p.NumWGs)

	spec := baseSpec(p, name, vgprs, lds)
	spec.IR = lfTreeBarrierIR(p, localScope, wgFlag, groupFlag, perWG)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			for i, a := range perWG {
				if got := read(a); got != int64(p.Iters) {
					return fmt.Errorf("%s: WG %d token %d, want %d", name, i, got, p.Iters)
				}
			}
			return nil
		},
	}, nil
}

// hashTableBench is the Table 2 caption's hash-table application: WGs
// insert into a bucketed table, each bucket guarded by a spin mutex.
func hashTableBench(p Params) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x60000)
	const buckets = 16
	locks := alloc.Words(buckets)
	counts := alloc.Words(buckets)
	barCount := alloc.Word()

	spec := baseSpec(p, "HashTable", 14, 1<<10)
	spec.IR = hashTableIR(p, buckets, locks, counts, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			var sum int64
			for _, c := range counts {
				sum += read(c)
			}
			if want := int64(p.NumWGs * p.Iters); sum != want {
				return fmt.Errorf("HashTable: %d insertions recorded, want %d", sum, want)
			}
			return nil
		},
	}, nil
}

// bankAccountBench is the Table 2 caption's bank-account application:
// transfers between ticket-locked accounts, locks taken in account order.
func bankAccountBench(p Params) (*Benchmark, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x70000)
	const accounts = 8
	const initialBalance = 1000
	tails := alloc.Words(accounts)
	servings := alloc.Words(accounts)
	balances := alloc.Words(accounts)
	barCount := alloc.Word()

	spec := baseSpec(p, "BankAccount", 18, 1<<10)
	spec.IR = bankAccountIR(p, accounts, tails, servings, balances, barCount)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Init: func(write func(mem.Addr, int64)) {
			for _, b := range balances {
				write(b, initialBalance)
			}
		},
		Verify: func(read func(mem.Addr) int64) error {
			var sum int64
			for _, b := range balances {
				sum += read(b)
			}
			if want := int64(accounts * initialBalance); sum != want {
				return fmt.Errorf("BankAccount: total balance %d, want %d (money not conserved)", sum, want)
			}
			return nil
		},
	}, nil
}
