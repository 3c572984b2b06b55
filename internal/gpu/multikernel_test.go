package gpu

import (
	"testing"

	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

func TestInjectKernelBothComplete(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg, computeKernel("lp", 8, 50_000), nil)
	hpDone := mem.Addr(0x100)
	hp := irKernel("hp", 2, func(b *prog.Builder) {
		b.Compute(prog.Imm(5_000))
		b.AtomicAddX(b.GVar(uint64(hpDone)), prog.Imm(1))
	})
	h, err := m.InjectKernel(hp, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if !h.Done() {
		t.Fatal("injected kernel did not finish")
	}
	if got := m.Mem().Read(hpDone); got != 2 {
		t.Fatalf("hp counter = %d, want 2", got)
	}
	if h.Latency() == 0 {
		t.Fatal("no latency recorded")
	}
	// Primary result reflects only the primary kernel.
	if res.Completed != 8 {
		t.Fatalf("primary completed = %d, want 8", res.Completed)
	}
}

func TestInjectKernelPreemptsLowerPriority(t *testing.T) {
	// Fill the machine (8 slots) with long-running LP WGs; a priority-1
	// kernel arriving mid-run must evict LP WGs rather than queue behind
	// them.
	cfg := testConfig()
	m := newTestMachine(t, cfg, computeKernel("lp", 8, 500_000), &yieldPolicy{})
	h, err := m.InjectKernel(computeKernel("hp", 4, 10_000), 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.SwitchesOut == 0 {
		t.Fatal("no LP WG was evicted for the high-priority kernel")
	}
	// The HP kernel must finish long before the LP kernel's 500k compute
	// blocks would otherwise allow: launch 20k + evictions + 10k compute
	// (with interference) plus margin.
	if h.Latency() > 120_000 {
		t.Fatalf("high-priority latency %d cycles — it waited for LP completions", h.Latency())
	}
}

func TestInjectKernelWithoutPriorityQueues(t *testing.T) {
	// Priority-0 injection must NOT evict anyone: it waits for free slots.
	cfg := testConfig()
	m := newTestMachine(t, cfg, computeKernel("lp", 8, 100_000), nil)
	h, err := m.InjectKernel(computeKernel("bg", 2, 1_000), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked || !h.Done() {
		t.Fatal("run failed")
	}
	if res.SwitchesOut != 0 {
		t.Fatal("priority-0 injection evicted resident WGs")
	}
	// It can only have started after a primary WG finished (~100k+).
	if h.Latency() < 80_000 {
		t.Fatalf("background kernel latency %d — it jumped the queue", h.Latency())
	}
}

func TestInjectKernelGroupGeometry(t *testing.T) {
	// 10 WGs injected on 8 CUs take round-robin homes, so groups 0 and 1
	// hold two WGs each and groups 2..7 one: every WG must see its own
	// group's size and its rank within it.
	cfg := testConfig()
	cfg.NumCUs = 8
	m := newTestMachine(t, cfg, emptyKernel(1), nil)
	const n = 10
	const size, rank = mem.Addr(0x10000), mem.Addr(0x20000)
	hp := irKernel("geom", n, func(b *prog.Builder) {
		b.Store(wgSlot(b, size, n, 1), b.Geom(prog.GeomGroupSize))
		b.Store(wgSlot(b, rank, n, 1), b.Geom(prog.GeomIndexInGroup))
	})
	if _, err := m.InjectKernel(hp, 0, 0); err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	sizes, ranks := readSlots(m, size, n), readSlots(m, rank, n)
	for i := 0; i < n; i++ {
		wantSize := int64(1)
		if i%8 < 2 {
			wantSize = 2
		}
		if sizes[i] != wantSize || ranks[i] != int64(i/8) {
			t.Errorf("injected WG %d: group size %d rank %d, want %d and %d", i, sizes[i], ranks[i], wantSize, i/8)
		}
	}
}

func TestInjectKernelValidation(t *testing.T) {
	spec := emptyKernel(1)
	m := newTestMachine(t, testConfig(), spec, nil)
	if _, err := m.InjectKernel(&KernelSpec{}, 0, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
	m.Run()
	if _, err := m.InjectKernel(spec, 0, 1); err == nil {
		t.Fatal("InjectKernel after Run accepted")
	}
}

func TestInjectedKernelCanSynchronize(t *testing.T) {
	// The injected kernel uses inter-WG synchronization itself (a small
	// counter barrier) under the active policy.
	cfg := testConfig()
	m := newTestMachine(t, cfg, computeKernel("lp", 4, 200_000), &yieldPolicy{})
	const count = mem.Addr(0x2000)
	hp := irKernel("hp-sync", 4, func(b *prog.Builder) {
		v := b.GVar(uint64(count))
		b.AtomicAddX(v, prog.Imm(1))
		b.AwaitGE(v, prog.Imm(4))
	})
	h, err := m.InjectKernel(hp, 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if !h.Done() {
		t.Fatal("synchronizing injected kernel did not finish")
	}
}

func TestEvictionPrefersStalledVictims(t *testing.T) {
	// Half the LP WGs wait (stalled) on a flag; the HP kernel needs half
	// the machine. The evicted WGs should be the stalled ones, so the LP
	// computation continues unharmed.
	cfg := testConfig() // 2 CUs x 4
	const flag = mem.Addr(0x3000)
	primary := irKernel("lp", 8, func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		id := b.Geom(prog.GeomID)
		waiter, end := b.Label(), b.Label()
		b.Br(prog.GE, id, prog.Imm(4), waiter)
		b.Compute(prog.Imm(300_000))
		b.Br(prog.NE, id, prog.Imm(0), end)
		b.AtomicStore(v, prog.Imm(1))
		b.Jmp(end)
		b.Bind(waiter)
		b.AwaitEq(v, prog.Imm(1))
		b.Bind(end)
	})
	m := newTestMachine(t, cfg, primary, &stallingPolicy{})
	if _, err := m.InjectKernel(computeKernel("hp", 4, 2_000), 50_000, 1); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	// The four stalled waiters are the natural victims; the computing WGs
	// should not have been evicted (4 evictions, not more).
	if res.SwitchesOut > 4 {
		t.Fatalf("%d evictions; expected only the 4 stalled waiters", res.SwitchesOut)
	}
}

func TestMultiWavefrontWGsOccupyMore(t *testing.T) {
	// A 256-WI WG is 4 wavefronts: a CU with 8 WF slots fits 2 of them
	// even though the WG-slot cap would allow 4.
	cfg := testConfig()
	cfg.NumCUs = 1
	cfg.WavefrontsPerSIMD = 4 // 2 SIMDs x 4 = 8 WF slots
	cfg.MaxWGsPerCU = 4
	// Track the maximum concurrency the dispatcher allows: each WG counts
	// itself in on a shared word, records the occupancy it saw, and counts
	// out before finishing (which frees its slots).
	const cur, seen = mem.Addr(0x1000), mem.Addr(0x10000)
	spec := irKernel("wide", 4, func(b *prog.Builder) {
		v := b.GVar(uint64(cur))
		b.Store(wgSlot(b, seen, 4, 0), b.Add(b.AtomicAdd(v, prog.Imm(1)), prog.Imm(1)))
		b.Compute(prog.Imm(10_000))
		b.AtomicAddX(v, prog.Imm(-1))
	})
	spec.WIsPerWG = 256
	m := newTestMachine(t, cfg, spec, nil)
	if res := m.Run(); res.Deadlocked || res.Completed != 4 {
		t.Fatalf("wide-WG run failed: %+v", res)
	}
	peak := int64(0)
	for _, n := range readSlots(m, seen, 4) {
		peak = max(peak, n)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2 (WF-slot limited)", peak)
	}
}

func TestMultiWavefrontComputeInterference(t *testing.T) {
	// Two 4-WF WGs on a 2-SIMD CU contend 4x harder than two 1-WF WGs.
	run := func(wis int) uint64 {
		cfg := testConfig()
		cfg.NumCUs = 1
		cfg.MaxWGsPerCU = 2
		spec := computeKernel("k", 2, 10_000)
		spec.WIsPerWG = wis
		m := newTestMachine(t, cfg, spec, nil)
		res := m.Run()
		if res.Deadlocked {
			t.Fatal("deadlocked")
		}
		return res.Cycles
	}
	narrow, wide := run(64), run(256)
	if wide < narrow*3 {
		t.Fatalf("4-WF WGs (%d cycles) not ~4x slower than 1-WF (%d)", wide, narrow)
	}
}

func TestSyncThreadsScalesWithWavefronts(t *testing.T) {
	run := func(wis int) uint64 {
		cfg := testConfig()
		spec := irKernel("k", 1, func(b *prog.Builder) { repeat(b, 20, b.SyncThreads) })
		spec.WIsPerWG = wis
		m := newTestMachine(t, cfg, spec, nil)
		return m.Run().Cycles
	}
	if one, four := run(64), run(256); four < one*3 {
		t.Fatalf("4-WF syncthreads (%d) not ~4x the 1-WF cost (%d)", four, one)
	}
}

func TestMaxWaitReported(t *testing.T) {
	m := newTestMachine(t, testConfig(), handoffKernel("wait", 2, 0x5000, 30_000), nil)
	res := m.Run()
	if res.MaxWait < 25_000 {
		t.Fatalf("MaxWait = %d, want ~30k (the consumer's single wait)", res.MaxWait)
	}
}

func TestTransientCULossRecovers(t *testing.T) {
	// Unlike the permanent loss of the Figure 15 experiment, a CU that
	// comes back lets even the busy-waiting baseline finish: the evicted
	// WGs re-dispatch onto the restored CU and satisfy the barrier.
	cfg := testConfig()
	cfg.ProgressWindow = 400_000
	spec := irKernel("transient", 8, func(b *prog.Builder) {
		b.Compute(prog.Imm(30_000))
		emitEpochBarrier(b, b.GVar(0x6000), prog.Imm(8))
	})
	m := newTestMachine(t, cfg, spec, nil) // busy-wait policy
	m.Engine().At(5_000, func() { m.PreemptCU(1) })
	m.Engine().At(120_000, func() { m.RestoreCU(1) })
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("baseline deadlocked on a transient CU loss — the evicted WGs should return")
	}
	if m.EnabledCUs() != 2 {
		t.Fatalf("EnabledCUs = %d after restore, want 2", m.EnabledCUs())
	}
	// Restoring an enabled CU is a no-op.
	m.RestoreCU(0)
}

func TestPermanentCULossDeadlocksBaseline(t *testing.T) {
	// The contrast case: same kernel, no restore — the barrier waits
	// forever for the evicted WGs.
	cfg := testConfig()
	cfg.ProgressWindow = 150_000
	spec := irKernel("permanent", 8, func(b *prog.Builder) {
		b.Compute(prog.Imm(30_000))
		emitEpochBarrier(b, b.GVar(0x7000), prog.Imm(8))
	})
	m := newTestMachine(t, cfg, spec, nil)
	m.Engine().At(5_000, func() { m.PreemptCU(1) })
	if res := m.Run(); !res.Deadlocked {
		t.Fatal("baseline completed despite a permanent CU loss")
	}
}
