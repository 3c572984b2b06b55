package gpu

import (
	"runtime"
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// spinPolicy is a minimal busy-wait policy for machine tests.
type spinPolicy struct{ m *Machine }

func (p *spinPolicy) Name() string            { return "spin" }
func (p *spinPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *spinPolicy) Wait(w *WG) {
	op := w.Episode()
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, op.Var, op.Op, op.A, op.B, nil, func(ret int64) {
			if op.Cmp.Test(ret, op.Want) {
				p.m.EndWait(w, ret)
				return
			}
			p.m.Engine().After(16, attempt)
		})
	}
	attempt()
}

// yieldPolicy context-switches waiters out whenever the machine is
// oversubscribed, for dispatcher/preemption tests.
type yieldPolicy struct{ m *Machine }

func (p *yieldPolicy) Name() string            { return "yield" }
func (p *yieldPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *yieldPolicy) Wait(w *WG) {
	op := w.Episode()
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, op.Var, op.Op, op.A, op.B, nil, func(ret int64) {
			if op.Cmp.Test(ret, op.Want) {
				p.m.EndWait(w, ret)
				return
			}
			if p.m.Oversubscribed() {
				p.m.SwitchOut(w)
			}
			p.m.Engine().After(2000, func() { p.m.Deliver(w, attempt) })
		})
	}
	attempt()
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCUs = 2
	cfg.MaxWGsPerCU = 4
	cfg.ProgressWindow = 200_000
	cfg.MaxCycles = 10_000_000
	return cfg
}

func newTestMachine(t *testing.T, cfg Config, spec *KernelSpec, pol Policy) *Machine {
	t.Helper()
	if pol == nil {
		pol = &spinPolicy{}
	}
	m, err := NewMachine(cfg, mem.DefaultConfig(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// irKernel builds a 64-WI test kernel whose program emit assembles.
func irKernel(name string, numWGs int, emit func(b *prog.Builder)) *KernelSpec {
	b := prog.NewBuilder()
	emit(b)
	return &KernelSpec{Name: name, NumWGs: numWGs, WIsPerWG: 64, IR: b.MustBuild()}
}

// emptyKernel is a kernel whose WGs finish immediately.
func emptyKernel(numWGs int) *KernelSpec {
	return irKernel("k", numWGs, func(*prog.Builder) {})
}

// computeKernel is a kernel whose WGs each compute for cycles and finish.
func computeKernel(name string, numWGs int, cycles int64) *KernelSpec {
	return irKernel(name, numWGs, func(b *prog.Builder) { b.Compute(prog.Imm(cycles)) })
}

// slotAddr is the i-th word of a line-separated per-WG slot table at base.
// Test kernels record what a WG observed there; the test reads the slots
// back after the run.
func slotAddr(base mem.Addr, i int) mem.Addr { return base + mem.Addr(64*i) }

// wgSlot emits the memory operand for slot (GeomID - firstID) of an
// n-entry slot table at base.
func wgSlot(b *prog.Builder, base mem.Addr, n, firstID int) prog.Mem {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(slotAddr(base, i))
	}
	idx := b.AddrRange(addrs) - int64(firstID)
	return prog.At(b.Add(prog.Imm(idx), b.Geom(prog.GeomID)), prog.Global)
}

// readSlots reads back an n-entry slot table.
func readSlots(m *Machine, base mem.Addr, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Mem().Read(slotAddr(base, i))
	}
	return out
}

// repeat emits body n times as a register-counted loop.
func repeat(b *prog.Builder, n int64, body func()) {
	i := b.Let(prog.Imm(0))
	end := b.Label()
	top := b.Here()
	b.Br(prog.GE, i, prog.Imm(n), end)
	body()
	b.ArithTo(prog.OpAdd, i, i, prog.Imm(1))
	b.Jmp(top)
	b.Bind(end)
}

// handoffKernel is the flag handoff most machine tests use: WG 0 computes
// for work cycles, then sets flag to 1; every other WG waits for it.
func handoffKernel(name string, numWGs int, flag mem.Addr, work int64) *KernelSpec {
	return irKernel(name, numWGs, func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		consumer, end := b.Label(), b.Label()
		b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(0), consumer)
		b.Compute(prog.Imm(work))
		b.AtomicStore(v, prog.Imm(1))
		b.Jmp(end)
		b.Bind(consumer)
		b.AwaitEq(v, prog.Imm(1))
		b.Bind(end)
	})
}

// emitSpinLockLoop emits n critical sections on the test-and-set lock at
// lock, each computing for work cycles.
func emitSpinLockLoop(b *prog.Builder, lock mem.Addr, n, work int64) {
	v := b.GVar(uint64(lock))
	repeat(b, n, func() {
		b.AcquireExch(v, prog.Imm(1), prog.Imm(0), false)
		b.Compute(prog.Imm(work))
		b.AtomicExchX(v, prog.Imm(0))
	})
}

func TestMachineValidation(t *testing.T) {
	spec := emptyKernel(1)
	if _, err := NewMachine(testConfig(), mem.DefaultConfig(), spec, nil); err == nil {
		t.Error("nil policy accepted")
	}
	bad := testConfig()
	bad.NumCUs = 0
	if _, err := NewMachine(bad, mem.DefaultConfig(), spec, &spinPolicy{}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewMachine(testConfig(), mem.DefaultConfig(), &KernelSpec{}, &spinPolicy{}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestTrivialKernelCompletes(t *testing.T) {
	const ran = mem.Addr(0x10000)
	spec := irKernel("trivial", 8, func(b *prog.Builder) {
		b.Compute(prog.Imm(100))
		b.Store(wgSlot(b, ran, 8, 0), prog.Imm(1))
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("trivial kernel deadlocked")
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d WGs, want 8", res.Completed)
	}
	for i, r := range readSlots(m, ran, 8) {
		if r != 1 {
			t.Errorf("WG %d never ran", i)
		}
	}
	if res.Cycles == 0 {
		t.Fatal("zero runtime")
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := newTestMachine(t, testConfig(), emptyKernel(1), nil)
	m.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run()
}

func TestAtomicAddAccumulates(t *testing.T) {
	const counter = mem.Addr(0x1000)
	spec := irKernel("adders", 8, func(b *prog.Builder) {
		repeat(b, 10, func() { b.AtomicAddX(b.GVar(uint64(counter)), prog.Imm(1)) })
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := m.Mem().Read(counter); got != 80 {
		t.Fatalf("counter = %d, want 80", got)
	}
	if res.Atomics != 80 {
		t.Fatalf("atomics counted = %d, want 80", res.Atomics)
	}
}

func TestAtomicOpsReturnOldValue(t *testing.T) {
	const a, out = mem.Addr(0x2000), mem.Addr(0x10000)
	spec := irKernel("ops", 1, func(b *prog.Builder) {
		v := b.GVar(uint64(a))
		b.AtomicStore(v, prog.Imm(5))
		exchOld := b.AtomicExch(v, prog.Imm(9))
		casOld := b.AtomicCAS(v, prog.Imm(9), prog.Imm(13))
		loadVal := b.AtomicLoad(v)
		for i, r := range []prog.Src{exchOld, casOld, loadVal} {
			b.Store(b.GVar(uint64(slotAddr(out, i))), r)
		}
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := readSlots(m, out, 3); got[0] != 5 || got[1] != 9 || got[2] != 13 {
		t.Fatalf("exch=%d cas=%d load=%d, want 5 9 13", got[0], got[1], got[2])
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	const a, out = mem.Addr(0x3000), mem.Addr(0x10000)
	spec := irKernel("ls", 1, func(b *prog.Builder) {
		b.Store(b.GVar(uint64(a)), prog.Imm(42))
		b.Store(b.GVar(uint64(out)), b.Load(b.GVar(uint64(a))))
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := m.Mem().Read(out); got != 42 {
		t.Fatalf("loaded %d, want 42", got)
	}
}

func TestProducerConsumerViaAwait(t *testing.T) {
	// Assembled by hand: the builder's AwaitEq discards the observed value,
	// and this test checks the interpreter delivers it into a register.
	const flag, out = mem.Addr(0x4000), mem.Addr(0x10000)
	p := &prog.Program{
		NumRegs: 2,
		Pool:    []uint64{uint64(flag), uint64(out)},
		Code: []prog.Op{
			{Kind: prog.OpGeom, Dst: 0, Geom: prog.GeomID},
			{Kind: prog.OpBr, Dst: -1, Cmp: prog.NE, A: prog.R(0), B: prog.Imm(0), Target: 5},
			{Kind: prog.OpCompute, Dst: -1, A: prog.Imm(5000)},
			{Kind: prog.OpAtomicStore, Dst: -1, A: prog.Imm(0), B: prog.Imm(7)},
			{Kind: prog.OpJmp, Dst: -1, Target: 7},
			{Kind: prog.OpAwaitEq, Dst: 1, A: prog.Imm(0), B: prog.Imm(7)},
			{Kind: prog.OpStore, Dst: -1, A: prog.Imm(1), B: prog.R(1)},
		},
	}
	spec := &KernelSpec{Name: "pc", NumWGs: 2, WIsPerWG: 64, IR: p}
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := m.Mem().Read(out); got != 7 {
		t.Fatalf("consumer observed %d, want 7", got)
	}
}

func TestAwaitGE(t *testing.T) {
	const c = mem.Addr(0x5000)
	spec := irKernel("ge", 4, func(b *prog.Builder) {
		v := b.GVar(uint64(c))
		b.AtomicAddX(v, prog.Imm(1))
		b.AwaitGE(v, prog.Imm(4)) // everyone waits for all arrivals
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("GE barrier deadlocked")
	}
}

func TestDeterministicReplay(t *testing.T) {
	build := func() *Machine {
		spec := irKernel("replay", 8, func(b *prog.Builder) { emitSpinLockLoop(b, 0x6000, 5, 50) })
		return newTestMachine(t, testConfig(), spec, nil)
	}
	a := build().Run()
	b := build().Run()
	if a.Cycles != b.Cycles || a.Atomics != b.Atomics {
		t.Fatalf("replay diverged: %d/%d cycles, %d/%d atomics",
			a.Cycles, b.Cycles, a.Atomics, b.Atomics)
	}
}

// stuckKernel waits on a word no WG ever writes.
func stuckKernel(numWGs int, never mem.Addr) *KernelSpec {
	return irKernel("stuck", numWGs, func(b *prog.Builder) { b.AwaitEq(b.GVar(uint64(never)), prog.Imm(1)) })
}

func TestDeadlockDetection(t *testing.T) {
	cfg := testConfig()
	cfg.ProgressWindow = 50_000
	m := newTestMachine(t, cfg, stuckKernel(2, 0x7000), nil)
	res := m.Run()
	if !res.Deadlocked {
		t.Fatal("watchdog missed an obvious deadlock")
	}
	if res.Completed != 0 {
		t.Fatalf("%d WGs completed in a deadlocked run", res.Completed)
	}
}

func TestOccupancyLimitedDispatch(t *testing.T) {
	// 16 WGs on a machine with 8 slots: the second half must start only
	// after the first half finishes (no policy-driven context switching
	// here). Each WG records its finishing rank.
	const finishers, rank = mem.Addr(0x8000), mem.Addr(0x10000)
	cfg := testConfig() // 2 CUs x 4 slots
	spec := irKernel("waves", 16, func(b *prog.Builder) {
		b.Compute(prog.Imm(1000))
		b.Store(wgSlot(b, rank, 16, 0), b.AtomicAdd(b.GVar(uint64(finishers)), prog.Imm(1)))
	})
	m := newTestMachine(t, cfg, spec, nil)
	res := m.Run()
	if res.Deadlocked || res.Completed != 16 {
		t.Fatalf("run failed: deadlocked=%v completed=%d", res.Deadlocked, res.Completed)
	}
	// The first 8 finishers must be exactly WGs 0..7 (dispatch order).
	ranks := readSlots(m, rank, 16)
	for i, r := range ranks[:8] {
		if r >= 8 {
			t.Fatalf("WG %d not in first dispatch wave: finishing ranks %v", i, ranks)
		}
	}
}

func TestHomeGroupsAndPlacement(t *testing.T) {
	const group, size = mem.Addr(0x10000), mem.Addr(0x20000)
	cfg := testConfig() // 2 CUs x 4
	spec := irKernel("groups", 8, func(b *prog.Builder) {
		b.Store(wgSlot(b, group, 8, 0), b.Geom(prog.GeomGroup))
		b.Store(wgSlot(b, size, 8, 0), b.Geom(prog.GeomGroupSize))
	})
	m := newTestMachine(t, cfg, spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	groups, sizes := readSlots(m, group, 8), readSlots(m, size, 8)
	for i := range groups {
		if sizes[i] != 4 {
			t.Errorf("WG %d group size %d, want 4", i, sizes[i])
		}
		if want := int64(i / 4); groups[i] != want {
			t.Errorf("WG %d in group %d, want %d", i, groups[i], want)
		}
	}
	for _, w := range m.WGs() {
		if w.Home() != int(w.ID())/4 {
			t.Errorf("WG %d home %d", w.ID(), w.Home())
		}
	}
}

// TestBlockedGroupSize checks the group-size formula against counting
// each WG of the blocked placement into its group, over launches that
// leave short last blocks and groups with no WG.
func TestBlockedGroupSize(t *testing.T) {
	for ncu := 1; ncu <= 4; ncu++ {
		for perCU := 1; perCU <= 5; perCU++ {
			for n := 1; n <= 3*ncu*perCU+2; n++ {
				count := make([]int, ncu)
				for i := 0; i < n; i++ {
					count[(i/perCU)%ncu]++
				}
				for g, want := range count {
					if got := blockedGroupSize(n, perCU, ncu, g); got != want {
						t.Fatalf("%d WGs, %d per CU, %d CUs: group %d size %d, want %d", n, perCU, ncu, g, got, want)
					}
				}
			}
		}
	}
}

func TestPreemptCUForcesWGsOut(t *testing.T) {
	// Long-running WGs on 2 CUs; preempt CU 1 mid-run. With the yield
	// policy, everything still completes on CU 0.
	cfg := testConfig()
	m := newTestMachine(t, cfg, handoffKernel("preempt", 8, 0x8000, 60_000), &yieldPolicy{})
	m.ScheduleCU(10_000, 1, false)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked after preemption under a yielding policy")
	}
	if m.EnabledCUs() != 1 {
		t.Fatalf("EnabledCUs = %d, want 1", m.EnabledCUs())
	}
	if res.SwitchesOut == 0 {
		t.Fatal("preemption recorded no context switches")
	}
	// Preempting again is a no-op.
	prev := m.Count.SwitchesOut
	m.preemptCU(1)
	if m.Count.SwitchesOut != prev {
		t.Fatal("double preemption switched WGs again")
	}
}

func TestStalledWGsFreeIssueSlots(t *testing.T) {
	// Two WGs on one CU with one SIMD: when the neighbour busy-spins,
	// compute takes ~2x as long as when it is stalled.
	run := func(stallNeighbour bool) uint64 {
		cfg := testConfig()
		cfg.NumCUs = 1
		cfg.SIMDsPerCU = 1
		cfg.MaxWGsPerCU = 2
		var pol Policy = &spinPolicy{}
		if stallNeighbour {
			pol = &stallingPolicy{}
		}
		m := newTestMachine(t, cfg, handoffKernel("interfere", 2, 0x9000, 100_000), pol)
		res := m.Run()
		if res.Deadlocked {
			t.Fatal("deadlocked")
		}
		return res.Cycles
	}
	spinning := run(false)
	stalled := run(true)
	if spinning < stalled*3/2 {
		t.Fatalf("busy neighbour (%d cycles) not meaningfully slower than stalled neighbour (%d)",
			spinning, stalled)
	}
}

// stallingPolicy stalls waiters (releasing issue slots) and re-polls on a
// long timer.
type stallingPolicy struct{ m *Machine }

func (p *stallingPolicy) Name() string            { return "stalling" }
func (p *stallingPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *stallingPolicy) Wait(w *WG) {
	op := w.Episode()
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, op.Var, op.Op, op.A, op.B, nil, func(ret int64) {
			if op.Cmp.Test(ret, op.Want) {
				p.m.SetStalled(w, false)
				p.m.EndWait(w, ret)
				return
			}
			p.m.SetStalled(w, true)
			p.m.Engine().After(5_000, attempt)
		})
	}
	attempt()
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	m1 := newTestMachine(t, testConfig(), emptyKernel(1), nil)
	m2 := newTestMachine(t, testConfig(), emptyKernel(1), nil)
	for i := 0; i < 1000; i++ {
		a, b := m1.Jitter(100), m2.Jitter(100)
		if a != b {
			t.Fatal("jitter not deterministic across machines")
		}
		if a >= 100 {
			t.Fatalf("jitter %d out of range", a)
		}
	}
	if m1.Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
}

func TestBreakdownAccounting(t *testing.T) {
	m := newTestMachine(t, testConfig(), handoffKernel("breakdown", 2, 0xa000, 20_000), nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.Breakdown.Waiting == 0 {
		t.Fatal("consumer recorded no waiting time")
	}
	if res.Breakdown.Running == 0 {
		t.Fatal("no running time recorded")
	}
	// The consumer waited roughly as long as the producer computed.
	if res.Breakdown.Waiting < 15_000 {
		t.Fatalf("waiting = %d, expected ~20k", res.Breakdown.Waiting)
	}
}

func TestCharacterizationStats(t *testing.T) {
	spec := irKernel("charz", 4, func(b *prog.Builder) { emitSpinLockLoop(b, 0xb000, 3, 100) })
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.SyncVars != 1 {
		t.Fatalf("SyncVars = %d, want 1", res.SyncVars)
	}
	if res.VarStats.MaxWaiters < 1 || res.VarStats.MaxWaiters > 4 {
		t.Fatalf("MaxWaiters = %d, want in [1,4]", res.VarStats.MaxWaiters)
	}
}

func TestSyncThreadsCost(t *testing.T) {
	cfg := testConfig()
	spec := irKernel("sync", 1, func(b *prog.Builder) { repeat(b, 10, b.SyncThreads) })
	m := newTestMachine(t, cfg, spec, nil)
	res := m.Run()
	minCost := uint64(10 * cfg.SyncThreadsLatency)
	if res.Cycles < minCost {
		t.Fatalf("10 syncthreads took %d cycles, want >= %d", res.Cycles, minCost)
	}
}

func TestOversubscribedFlag(t *testing.T) {
	cfg := testConfig() // capacity 8
	m := newTestMachine(t, cfg, computeKernel("k", 12, 1000), nil)
	if !m.Oversubscribed() {
		t.Fatal("12 WGs on 8 slots not reported oversubscribed before dispatch")
	}
	res := m.Run()
	if res.Deadlocked || res.Completed != 12 {
		t.Fatalf("oversubscribed-by-launch run failed: %+v", res)
	}
	if m.Oversubscribed() {
		t.Fatal("still oversubscribed after completion")
	}
}

func TestAbortCleansUpGoroutines(t *testing.T) {
	// A deadlocked run leaves nothing running behind it: WGs are interpreter
	// frames, not goroutines, so abandoning the unfinished ones must not grow
	// the process's goroutine count however often it happens.
	cfg := testConfig()
	cfg.ProgressWindow = 20_000
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		m := newTestMachine(t, cfg, stuckKernel(8, 0xdead0), nil)
		if res := m.Run(); !res.Deadlocked {
			t.Fatal("expected deadlock")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d across deadlocked runs", before, after)
	}
}

func TestEventEngineExposed(t *testing.T) {
	m := newTestMachine(t, testConfig(), emptyKernel(1), nil)
	fired := false
	m.Engine().At(event.Cycle(1), func() { fired = true })
	m.Run()
	if !fired {
		t.Fatal("harness event did not fire")
	}
}
