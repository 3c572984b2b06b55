package cp

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
	"awgsim/internal/syncmon"
)

type nopPolicy struct{}

func (nopPolicy) Name() string              { return "nop" }
func (nopPolicy) Attach(*gpu.Machine) error { return nil }
func (nopPolicy) Wait(*gpu.WG, gpu.Var, gpu.AtomicOp, int64, int64, int64, gpu.Cmp, gpu.WaitHint, func(int64)) {
}

type wakeRec struct {
	wg   gpu.WGID
	addr mem.Addr
	want int64
	met  bool
}

type harness struct {
	m     *gpu.Machine
	log   *syncmon.MonitorLog
	p     *Processor
	wakes []wakeRec
	done  bool
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	spec := &gpu.KernelSpec{Name: "noop", NumWGs: 1, WIsPerWG: 64, IR: prog.NewBuilder().MustBuild()}
	m, err := gpu.NewMachine(gpu.DefaultConfig(), mem.DefaultConfig(), spec, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{m: m, log: syncmon.NewMonitorLog(64)}
	h.p, err = New(cfg, m, h.log, func(wg gpu.WGID, addr mem.Addr, want int64, met bool) {
		h.wakes = append(h.wakes, wakeRec{wg, addr, want, met})
	})
	if err != nil {
		t.Fatal(err)
	}
	h.p.Start(func() bool { return !h.done })
	return h
}

// runFor advances the engine limit cycles (the firmware loops keep the
// calendar alive, so a bounded run is required).
func (h *harness) runFor(d event.Cycle) {
	h.m.Engine().RunUntil(h.m.Engine().Now() + d)
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}, nil, nil, nil); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := New(Config{DrainInterval: 1, CheckInterval: 1}, nil, nil, nil); err == nil {
		t.Fatal("zero drain batch accepted")
	}
}

func TestDrainAndCheckWakes(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.log.Push(syncmon.LogEntry{Addr: 0x100, Want: 7, Cmp: gpu.CmpEQ, WG: 3})
	// The condition does not hold yet: a drain + check must not wake.
	h.runFor(20_000)
	if len(h.wakes) != 0 {
		t.Fatalf("woken before condition held: %+v", h.wakes)
	}
	if h.p.TableSize() != 1 {
		t.Fatalf("table size %d after drain, want 1", h.p.TableSize())
	}
	// Make the condition hold; the next periodic check wakes the waiter.
	h.m.Mem().Write(0x100, 7)
	h.runFor(20_000)
	if len(h.wakes) != 1 || h.wakes[0].wg != 3 || !h.wakes[0].met {
		t.Fatalf("wakes = %+v", h.wakes)
	}
	if h.p.TableSize() != 0 {
		t.Fatal("condition left in table after wake")
	}
}

func TestCheckHonorsGE(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.log.Push(syncmon.LogEntry{Addr: 0x200, Want: 10, Cmp: gpu.CmpGE, WG: 1})
	h.m.Mem().Write(0x200, 25) // swept past the target
	h.runFor(20_000)
	if len(h.wakes) != 1 {
		t.Fatalf("GE spilled condition missed: %+v", h.wakes)
	}
}

func TestMultipleWaitersOneCondition(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	for i := gpu.WGID(0); i < 3; i++ {
		h.log.Push(syncmon.LogEntry{Addr: 0x300, Want: 1, Cmp: gpu.CmpEQ, WG: i})
	}
	h.m.Mem().Write(0x300, 1)
	h.runFor(20_000)
	if len(h.wakes) != 3 {
		t.Fatalf("woke %d of 3 spilled waiters", len(h.wakes))
	}
}

func TestUnregisterAfterDrain(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.log.Push(syncmon.LogEntry{Addr: 0x400, Want: 1, Cmp: gpu.CmpEQ, WG: 5})
	h.runFor(10_000) // drained into the table
	h.p.Unregister(5, gpu.GlobalVar(0x400), 1, gpu.CmpEQ)
	h.m.Mem().Write(0x400, 1)
	h.runFor(20_000)
	if len(h.wakes) != 0 {
		t.Fatalf("unregistered waiter woken: %+v", h.wakes)
	}
	if h.p.TableSize() != 0 {
		t.Fatal("table not empty after unregister")
	}
}

func TestUnregisterBeforeDrainTombstones(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// Unregister arrives while the entry is conceptually in flight (the
	// log's own Remove covers the ring; the tombstone covers a popped
	// batch). Simulate by unregistering before any drain and then pushing.
	h.p.Unregister(6, gpu.GlobalVar(0x500), 2, gpu.CmpEQ)
	h.log.Push(syncmon.LogEntry{Addr: 0x500, Want: 2, Cmp: gpu.CmpEQ, WG: 6})
	h.m.Mem().Write(0x500, 2)
	h.runFor(20_000)
	if len(h.wakes) != 0 {
		t.Fatalf("tombstoned waiter woken: %+v", h.wakes)
	}
}

func TestUnregisterConsumesRingEntry(t *testing.T) {
	// The lost-wakeup regression: a waiter spills, its policy timeout fires
	// before any drain, and the WG later re-registers and re-spills the
	// same condition. The withdrawal must consume the ring entry directly —
	// recording a deferred tombstone instead leaves it stale, and the
	// re-spilled entry is silently discarded at drain time (the waiter then
	// never reaches the table and no check pass ever wakes it).
	h := newHarness(t, DefaultConfig())
	h.log.Push(syncmon.LogEntry{Addr: 0xb00, Want: 1, Cmp: gpu.CmpEQ, WG: 7})
	h.p.Unregister(7, gpu.GlobalVar(0xb00), 1, gpu.CmpEQ)
	if h.log.Len() != 0 {
		t.Fatalf("ring entry not consumed by Unregister (log len %d)", h.log.Len())
	}
	// The WG retries, fails again, and spills the same condition again.
	h.log.Push(syncmon.LogEntry{Addr: 0xb00, Want: 1, Cmp: gpu.CmpEQ, WG: 7})
	h.runFor(10_000) // drain
	if h.p.TableSize() != 1 {
		t.Fatal("re-spilled waiter swallowed by a stale tombstone")
	}
	h.m.Mem().Write(0xb00, 1)
	h.runFor(20_000)
	if len(h.wakes) != 1 || h.wakes[0].wg != 7 {
		t.Fatalf("wakes = %+v, want one wake of WG 7", h.wakes)
	}
}

func TestTwoSpilledConditionsMetSamePass(t *testing.T) {
	// Both conditions hold when a check pass starts: the first wake drops
	// its condition from p.order mid-pass, which must not make the walk
	// skip or repeat the second (the pass snapshots its walk first).
	h := newHarness(t, DefaultConfig())
	h.log.Push(syncmon.LogEntry{Addr: 0xc00, Want: 1, Cmp: gpu.CmpEQ, WG: 1})
	h.log.Push(syncmon.LogEntry{Addr: 0xc40, Want: 2, Cmp: gpu.CmpEQ, WG: 2})
	h.m.Mem().Write(0xc00, 1)
	h.m.Mem().Write(0xc40, 2)
	h.runFor(20_000)
	if len(h.wakes) != 2 {
		t.Fatalf("woke %d waiters, want 2: %+v", len(h.wakes), h.wakes)
	}
	if h.wakes[0].wg != 1 || h.wakes[1].wg != 2 {
		t.Fatalf("wake order %+v, want WG 1 then WG 2 (drain arrival)", h.wakes)
	}
	if h.p.TableSize() != 0 {
		t.Fatalf("table size %d after both wakes, want 0", h.p.TableSize())
	}
}

func TestHighWaterMarks(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	for i := 0; i < 4; i++ {
		h.log.Push(syncmon.LogEntry{Addr: mem.Addr(0x600 + i*64), Want: 1, Cmp: gpu.CmpEQ, WG: gpu.WGID(i)})
	}
	h.runFor(10_000)
	if h.p.MaxTableSize() != 4 {
		t.Fatalf("MaxTableSize = %d, want 4", h.p.MaxTableSize())
	}
	if h.m.Count.MaxConditions != 4 || h.m.Count.MaxWaitingWGs != 4 || h.m.Count.MaxMonitoredVars != 4 {
		t.Fatalf("machine high-water %d/%d/%d",
			h.m.Count.MaxConditions, h.m.Count.MaxWaitingWGs, h.m.Count.MaxMonitoredVars)
	}
}

func TestStopEndsFirmwareLoops(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.done = true
	h.runFor(100_000)
	// With the loops stopped, the calendar must drain completely.
	if h.m.Engine().Pending() != 0 {
		t.Fatalf("%d events still pending after stop", h.m.Engine().Pending())
	}
	// Starting twice is a no-op (no panic, no duplicate loops).
	h.p.Start(func() bool { return false })
}

func TestDrainBatchBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DrainBatch = 2
	h := newHarness(t, cfg)
	for i := 0; i < 5; i++ {
		h.log.Push(syncmon.LogEntry{Addr: mem.Addr(0x700 + i*64), Want: 1, Cmp: gpu.CmpEQ, WG: gpu.WGID(i)})
	}
	// One drain pass moves at most 2 entries.
	h.runFor(cfg.DrainInterval + 1)
	if h.p.TableSize() > 2 {
		t.Fatalf("drain pass moved %d entries, batch is 2", h.p.TableSize())
	}
	// Subsequent passes finish the job.
	h.runFor(5 * cfg.DrainInterval)
	if h.p.TableSize() != 5 {
		t.Fatalf("table size %d after all drains, want 5", h.p.TableSize())
	}
}

func TestCheckOrderDeterministic(t *testing.T) {
	// Two identical harnesses must wake spilled waiters in the same order
	// (the check pass walks a deterministic list, never a Go map).
	run := func() []gpu.WGID {
		h := newHarness(t, DefaultConfig())
		for i := 0; i < 8; i++ {
			a := mem.Addr(0x900 + i*64)
			h.log.Push(syncmon.LogEntry{Addr: a, Want: 1, Cmp: gpu.CmpEQ, WG: gpu.WGID(i)})
			h.m.Mem().Write(a, 1) // all conditions already hold
		}
		h.runFor(30_000)
		var order []gpu.WGID
		for _, w := range h.wakes {
			order = append(order, w.wg)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("wake counts %d/%d, want 8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("check order diverged: %v vs %v", a, b)
		}
	}
}

func TestRoundRobinRotatesStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Order = OrderRoundRobin
	h := newHarness(t, cfg)
	// Two conditions that never become true: each check pass probes both,
	// but rotation must alternate which is probed first. Observe through
	// wake order once we satisfy them at different times.
	h.log.Push(syncmon.LogEntry{Addr: 0xa00, Want: 1, Cmp: gpu.CmpEQ, WG: 1})
	h.log.Push(syncmon.LogEntry{Addr: 0xa40, Want: 1, Cmp: gpu.CmpEQ, WG: 2})
	h.runFor(20_000) // drained, neither satisfied
	h.m.Mem().Write(0xa00, 1)
	h.m.Mem().Write(0xa40, 1)
	h.runFor(20_000)
	if len(h.wakes) != 2 {
		t.Fatalf("woke %d, want 2", len(h.wakes))
	}
}
