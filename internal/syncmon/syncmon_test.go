package syncmon

import (
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// fakeSelector records calls and returns a fixed count (0 = all).
type fakeSelector struct {
	updates     []int64
	unmonitored []mem.Addr
	fixed       int
}

func (f *fakeSelector) ObserveUpdate(_ mem.Addr, v int64) { f.updates = append(f.updates, v) }
func (f *fakeSelector) AddressUnmonitored(a mem.Addr)     { f.unmonitored = append(f.unmonitored, a) }
func (f *fakeSelector) Select(_ mem.Addr, _ int64, classes []OpClass) int {
	if f.fixed > 0 {
		return f.fixed
	}
	return len(classes)
}

type wakeRec struct {
	wg   gpu.WGID
	addr mem.Addr
	want int64
	met  bool
}

type harness struct {
	m     *gpu.Machine
	sm    *SyncMon
	sel   *fakeSelector
	wakes []wakeRec
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	spec := &gpu.KernelSpec{Name: "noop", NumWGs: 1, WIsPerWG: 64, IR: prog.NewBuilder().MustBuild()}
	m, err := gpu.NewMachine(gpu.DefaultConfig(), mem.DefaultConfig(), spec, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{m: m, sel: &fakeSelector{}}
	h.sm, err = New(cfg, m, h.sel, func(wg gpu.WGID, addr mem.Addr, want int64, met bool) {
		h.wakes = append(h.wakes, wakeRec{wg, addr, want, met})
	})
	if err != nil {
		t.Fatal(err)
	}
	m.OnAtomicApply(h.sm.Observe)
	return h
}

// update applies an atomic write and flushes the event calendar so the
// SyncMon observes it.
func (h *harness) update(a mem.Addr, op gpu.AtomicOp, val int64) {
	h.m.IssueAtomic(nil, gpu.GlobalVar(a), op, val, 0, nil)
	h.m.Engine().Run()
}

type nopPolicy struct{}

func (nopPolicy) Name() string              { return "nop" }
func (nopPolicy) Attach(*gpu.Machine) error { return nil }
func (nopPolicy) Wait(*gpu.WG)              {}

func TestMonitorLogFIFO(t *testing.T) {
	l := NewMonitorLog(4)
	for i := 0; i < 4; i++ {
		if !l.Push(LogEntry{Addr: mem.Addr(i), WG: gpu.WGID(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if l.Push(LogEntry{}) {
		t.Fatal("push into full log succeeded")
	}
	if l.Len() != 4 || l.MaxLen() != 4 {
		t.Fatalf("len=%d max=%d", l.Len(), l.MaxLen())
	}
	for i := 0; i < 4; i++ {
		e, ok := l.Pop()
		if !ok || e.WG != gpu.WGID(i) {
			t.Fatalf("pop %d = %+v ok=%v", i, e, ok)
		}
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("pop from empty log succeeded")
	}
}

func TestMonitorLogWraps(t *testing.T) {
	l := NewMonitorLog(3)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			if !l.Push(LogEntry{WG: gpu.WGID(round*3 + i)}) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			e, ok := l.Pop()
			if !ok || e.WG != gpu.WGID(round*3+i) {
				t.Fatalf("round %d pop %d = %+v", round, i, e)
			}
		}
	}
}

func TestMonitorLogRemove(t *testing.T) {
	l := NewMonitorLog(4)
	l.Push(LogEntry{Addr: 8, Want: 1, WG: 5})
	l.Push(LogEntry{Addr: 8, Want: 1, WG: 6})
	l.Remove(5, 8, 1)
	if l.Len() != 1 {
		t.Fatalf("len=%d after Remove, want 1", l.Len())
	}
	// A second removal of the same waiter finds nothing: the entry is
	// already dead.
	l.Remove(5, 8, 1)
	if l.Len() != 1 {
		t.Fatalf("len=%d after re-Remove, want 1", l.Len())
	}
	e, ok := l.Pop()
	if !ok || e.WG != 6 {
		t.Fatalf("pop after remove = %+v ok=%v, want WG 6", e, ok)
	}
}

func TestMonitorLogLenIgnoresTombstones(t *testing.T) {
	l := NewMonitorLog(8)
	l.Push(LogEntry{Addr: 8, Want: 1, WG: 5})
	l.Push(LogEntry{Addr: 8, Want: 1, WG: 6})
	l.Push(LogEntry{Addr: 16, Want: 2, WG: 7})
	if l.Len() != 3 || l.MaxLen() != 3 {
		t.Fatalf("len=%d max=%d, want 3/3", l.Len(), l.MaxLen())
	}
	// Tombstoned entries are not waiting conditions: Len drops, MaxLen
	// keeps the live high-water.
	l.Remove(5, 8, 1)
	if l.Len() != 2 || l.MaxLen() != 3 {
		t.Fatalf("after remove len=%d max=%d, want 2/3", l.Len(), l.MaxLen())
	}
	l.Remove(7, 16, 2)
	if l.Len() != 1 {
		t.Fatalf("after second remove len=%d, want 1", l.Len())
	}
	// A push after removals raises Len but not the high-water (2 < 3).
	l.Push(LogEntry{Addr: 24, Want: 3, WG: 8})
	if l.Len() != 2 || l.MaxLen() != 3 {
		t.Fatalf("after push len=%d max=%d, want 2/3", l.Len(), l.MaxLen())
	}
	// Pops skip the dead entries and account only live ones.
	if e, ok := l.Pop(); !ok || e.WG != 6 {
		t.Fatalf("pop = %+v ok=%v, want WG 6", e, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("after pop len=%d, want 1", l.Len())
	}
	if e, ok := l.Pop(); !ok || e.WG != 8 {
		t.Fatalf("pop = %+v ok=%v, want WG 8", e, ok)
	}
	if l.Len() != 0 {
		t.Fatalf("after draining len=%d, want 0", l.Len())
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("pop from drained log succeeded")
	}
}

func TestMonitorLogPushGatedByPhysicalSlots(t *testing.T) {
	// Tombstones still occupy ring slots until a pop walks past them, so a
	// physically full ring rejects pushes even when Len is low.
	l := NewMonitorLog(2)
	l.Push(LogEntry{Addr: 8, Want: 1, WG: 1})
	l.Push(LogEntry{Addr: 8, Want: 1, WG: 2})
	l.Remove(1, 8, 1)
	if l.Len() != 1 {
		t.Fatalf("len=%d, want 1", l.Len())
	}
	if l.Push(LogEntry{Addr: 8, Want: 1, WG: 3}) {
		t.Fatal("push into physically full ring succeeded")
	}
	// Popping reclaims the dead slot along with the live one.
	if e, ok := l.Pop(); !ok || e.WG != 2 {
		t.Fatalf("pop = %+v ok=%v, want WG 2", e, ok)
	}
	if !l.Push(LogEntry{Addr: 8, Want: 1, WG: 3}) {
		t.Fatal("push after reclaim failed")
	}
	if l.Len() != 1 || l.MaxLen() != 2 {
		t.Fatalf("len=%d max=%d, want 1/2", l.Len(), l.MaxLen())
	}
}

func TestRegisterAndWakeEQ(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	v := gpu.GlobalVar(0x100)
	if got := h.sm.Register(3, v, 1, gpu.CmpEQ, ClassLoad); got != Registered {
		t.Fatalf("Register = %v", got)
	}
	if h.sm.Waiters() != 1 || h.sm.Conditions() != 1 || h.sm.MonitoredAddrs() != 1 {
		t.Fatalf("occupancy %d/%d/%d", h.sm.Waiters(), h.sm.Conditions(), h.sm.MonitoredAddrs())
	}
	// A non-matching update does not wake.
	h.update(0x100, gpu.OpStore, 2)
	if len(h.wakes) != 0 {
		t.Fatalf("non-matching update woke %d", len(h.wakes))
	}
	// The matching update wakes with met=true and clears the condition.
	h.update(0x100, gpu.OpStore, 1)
	if len(h.wakes) != 1 || h.wakes[0].wg != 3 || !h.wakes[0].met {
		t.Fatalf("wakes = %+v", h.wakes)
	}
	if h.sm.Waiters() != 0 || h.sm.MonitoredAddrs() != 0 {
		t.Fatal("condition not cleared after wake")
	}
	if len(h.sel.unmonitored) != 1 {
		t.Fatal("selector not told the address is unmonitored")
	}
}

func TestRegisterAndWakeGE(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	v := gpu.GlobalVar(0x200)
	h.sm.Register(1, v, 10, gpu.CmpGE, ClassLoad)
	h.update(0x200, gpu.OpStore, 9)
	if len(h.wakes) != 0 {
		t.Fatal("GE condition met below target")
	}
	h.update(0x200, gpu.OpStore, 12) // sweeps past 10
	if len(h.wakes) != 1 {
		t.Fatalf("GE condition missed an overshooting update: %+v", h.wakes)
	}
}

func TestLoadsDoNotTriggerChecks(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	v := gpu.GlobalVar(0x280)
	h.m.Mem().Write(0x280, 5)
	h.sm.Register(1, v, 5, gpu.CmpEQ, ClassLoad)
	h.update(0x280, gpu.OpLoad, 0)
	if len(h.wakes) != 0 {
		t.Fatal("an atomic load triggered a condition check")
	}
}

func TestSelectorControlsResumeCount(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.sel.fixed = 1 // resume-one
	v := gpu.GlobalVar(0x300)
	for i := gpu.WGID(0); i < 4; i++ {
		h.sm.Register(i, v, 7, gpu.CmpEQ, ClassRMW)
	}
	h.update(0x300, gpu.OpStore, 7)
	if len(h.wakes) != 1 {
		t.Fatalf("resume-one woke %d waiters", len(h.wakes))
	}
	if h.wakes[0].wg != 0 {
		t.Fatalf("woke %d, want FIFO head 0", h.wakes[0].wg)
	}
	// The condition stays monitored for the remaining waiters.
	if h.sm.Waiters() != 3 {
		t.Fatalf("waiters after resume-one = %d, want 3", h.sm.Waiters())
	}
	// Another matching update releases the next one.
	h.update(0x300, gpu.OpStore, 7)
	if len(h.wakes) != 2 || h.wakes[1].wg != 1 {
		t.Fatalf("second wake = %+v", h.wakes)
	}
}

func TestSporadicWakesAllUnchecked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sporadic = true
	h := newHarness(t, cfg)
	v := gpu.GlobalVar(0x400)
	h.sm.Register(1, v, 100, gpu.CmpEQ, ClassLoad)
	h.sm.Register(2, v, 200, gpu.CmpEQ, ClassLoad)
	// Any access — even one that satisfies neither condition — wakes both,
	// with met=false (Mesa hint).
	h.update(0x400, gpu.OpStore, 5)
	if len(h.wakes) != 2 {
		t.Fatalf("sporadic woke %d, want 2", len(h.wakes))
	}
	for _, w := range h.wakes {
		if w.met {
			t.Fatal("sporadic wake claimed the condition was met")
		}
	}
	if h.sm.Waiters() != 0 {
		t.Fatal("sporadic wake left waiters registered")
	}
}

func TestSetConflictSpillsToLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 1 // every condition maps to one set of Ways entries
	cfg.Ways = 2
	h := newHarness(t, cfg)
	a := gpu.GlobalVar(0x500)
	b := gpu.GlobalVar(0x540)
	c := gpu.GlobalVar(0x580)
	if h.sm.Register(1, a, 1, gpu.CmpEQ, ClassLoad) != Registered {
		t.Fatal("first register spilled")
	}
	if h.sm.Register(2, b, 1, gpu.CmpEQ, ClassLoad) != Registered {
		t.Fatal("second register spilled")
	}
	if got := h.sm.Register(3, c, 1, gpu.CmpEQ, ClassLoad); got != Spilled {
		t.Fatalf("conflicting register = %v, want Spilled", got)
	}
	if h.sm.Log().Len() != 1 {
		t.Fatalf("log has %d entries, want 1", h.sm.Log().Len())
	}
}

// TestLogRingAllocatedOnFirstSpill: a monitor that never spills holds no
// ring storage, and the first spill allocates the full modelled capacity.
func TestLogRingAllocatedOnFirstSpill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets, cfg.Ways = 1, 1
	h := newHarness(t, cfg)
	if h.sm.Register(1, gpu.GlobalVar(0x500), 1, gpu.CmpEQ, ClassLoad) != Registered {
		t.Fatal("first register spilled")
	}
	h.update(0x500, gpu.OpStore, 1)
	l := h.sm.Log()
	if l.entries != nil || l.dead != nil {
		t.Fatal("monitor that never spilled allocated its log ring")
	}
	if pop, ok := l.Pop(); ok || l.Len() != 0 {
		t.Fatalf("unallocated ring popped %+v (len %d), want empty", pop, l.Len())
	}
	l.Remove(1, 0x500, 1) // no-op on an unallocated ring
	if h.sm.Register(2, gpu.GlobalVar(0x540), 1, gpu.CmpEQ, ClassLoad) != Registered {
		t.Fatal("register into the freed way spilled")
	}
	if got := h.sm.Register(3, gpu.GlobalVar(0x580), 1, gpu.CmpEQ, ClassLoad); got != Spilled {
		t.Fatalf("conflicting register = %v, want Spilled", got)
	}
	if len(l.entries) != cfg.LogCapacity || len(l.dead) != cfg.LogCapacity {
		t.Fatalf("first spill allocated %d/%d ring slots, want %d", len(l.entries), len(l.dead), cfg.LogCapacity)
	}
}

// TestSetArraysBuiltOnFirstInsert: a monitor builds its condition-set
// arrays at its first insert, but StateBytes charges them at the configured
// geometry from construction, so the fleet's migration pause, which reads
// gpu.Machine.StateBytes, is what it was when the arrays were built eagerly.
func TestSetArraysBuiltOnFirstInsert(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg)
	cs := &h.sm.store
	if cs.setEnt != nil || cs.setLen != nil {
		t.Fatal("fresh monitor built its set arrays")
	}
	// 128 + 4*(256*4 + 256) set-array bytes + 33*4096 ring bytes + 24.
	if got := h.sm.StateBytes(); got != 140440 {
		t.Fatalf("fresh monitor StateBytes = %d, want 140440", got)
	}
	if h.sm.Register(1, gpu.GlobalVar(0x500), 1, gpu.CmpEQ, ClassLoad) != Registered {
		t.Fatal("first register spilled")
	}
	if len(cs.setEnt) != cfg.Sets*cfg.Ways || len(cs.setLen) != cfg.Sets {
		t.Fatalf("first insert built %d/%d set-array entries, want %d/%d", len(cs.setEnt), len(cs.setLen), cfg.Sets*cfg.Ways, cfg.Sets)
	}
	// Plus a 40-byte condition, a 24-byte waiter and a 24-byte address.
	if got := h.sm.StateBytes(); got != 140440+88 {
		t.Fatalf("StateBytes after the first insert = %d, want %d", got, 140440+88)
	}
}

func TestWaitListFullSpills(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WaitListSize = 2
	h := newHarness(t, cfg)
	v := gpu.GlobalVar(0x600)
	h.sm.Register(1, v, 1, gpu.CmpEQ, ClassLoad)
	h.sm.Register(2, v, 1, gpu.CmpEQ, ClassLoad)
	if got := h.sm.Register(3, v, 1, gpu.CmpEQ, ClassLoad); got != Spilled {
		t.Fatalf("over-capacity register = %v, want Spilled", got)
	}
}

func TestLogFullRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 0 // force everything to the log
	cfg.LogCapacity = 2
	h := newHarness(t, cfg)
	v := gpu.GlobalVar(0x700)
	if h.sm.Register(1, v, 1, gpu.CmpEQ, ClassLoad) != Spilled {
		t.Fatal("expected spill with no cache")
	}
	h.sm.Register(2, v, 1, gpu.CmpEQ, ClassLoad)
	if got := h.sm.Register(3, v, 1, gpu.CmpEQ, ClassLoad); got != Rejected {
		t.Fatalf("register with full log = %v, want Rejected (Mesa retry)", got)
	}
	if h.m.Count.LogRejects != 1 {
		t.Fatalf("LogRejects = %d", h.m.Count.LogRejects)
	}
}

func TestUnregister(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	v := gpu.GlobalVar(0x800)
	h.sm.Register(1, v, 1, gpu.CmpEQ, ClassLoad)
	if !h.sm.Unregister(1, v, 1, gpu.CmpEQ) {
		t.Fatal("Unregister missed a cached waiter")
	}
	if h.sm.Waiters() != 0 || h.sm.Conditions() != 0 {
		t.Fatal("unregister left state behind")
	}
	// A second withdrawal reports a cache miss, telling the policy the
	// waiter (if it exists at all) is on the spilled log/CP side.
	if h.sm.Unregister(1, v, 1, gpu.CmpEQ) {
		t.Fatal("Unregister reported a hit for an absent waiter")
	}
	h.update(0x800, gpu.OpStore, 1)
	if len(h.wakes) != 0 {
		t.Fatal("unregistered waiter was woken")
	}
}

func TestUnregisterSpilledReportsMiss(t *testing.T) {
	// With no cache, every registration spills: Unregister must report a
	// miss (it no longer touches the log — the CP's Unregister owns the
	// spilled side) and the ring entry must stay live.
	cfg := DefaultConfig()
	cfg.Sets = 0
	h := newHarness(t, cfg)
	v := gpu.GlobalVar(0x840)
	if h.sm.Register(1, v, 1, gpu.CmpEQ, ClassLoad) != Spilled {
		t.Fatal("expected spill with no cache")
	}
	if h.sm.Unregister(1, v, 1, gpu.CmpEQ) {
		t.Fatal("Unregister claimed a cache hit for a spilled waiter")
	}
	if h.sm.Log().Len() != 1 {
		t.Fatalf("log len=%d, want 1 (SyncMon must not tombstone the ring)", h.sm.Log().Len())
	}
}

func TestMonitoredLinePinnedInL2(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	v := gpu.GlobalVar(0x900)
	h.sm.Register(1, v, 1, gpu.CmpEQ, ClassLoad)
	if !h.m.Mem().L2().Contains(0x900) {
		t.Fatal("monitored line not resident in L2")
	}
	if h.m.Mem().L2().Pinned() != 1 {
		t.Fatalf("pinned lines = %d, want 1", h.m.Mem().L2().Pinned())
	}
	h.sm.Unregister(1, v, 1, gpu.CmpEQ)
	if h.m.Mem().L2().Pinned() != 0 {
		t.Fatal("line still pinned after unmonitor")
	}
}

func TestDistinctConditionsPerAddress(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	v := gpu.GlobalVar(0xa00)
	// Two waiters on different expected values of the same variable (a
	// ticket lock's shape).
	h.sm.Register(1, v, 5, gpu.CmpEQ, ClassLoad)
	h.sm.Register(2, v, 6, gpu.CmpEQ, ClassLoad)
	if h.sm.Conditions() != 2 || h.sm.MonitoredAddrs() != 1 {
		t.Fatalf("conds=%d addrs=%d, want 2/1", h.sm.Conditions(), h.sm.MonitoredAddrs())
	}
	h.update(0xa00, gpu.OpStore, 6)
	if len(h.wakes) != 1 || h.wakes[0].wg != 2 {
		t.Fatalf("wrong waiter woken: %+v", h.wakes)
	}
	// The other condition survives.
	if h.sm.Conditions() != 1 {
		t.Fatalf("conds after partial wake = %d", h.sm.Conditions())
	}
}

func TestHighWaterCounters(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		h.sm.Register(gpu.WGID(i), gpu.GlobalVar(mem.Addr(0xb00+i*64)), 1, gpu.CmpEQ, ClassLoad)
	}
	if h.m.Count.MaxConditions != 5 || h.m.Count.MaxWaitingWGs != 5 || h.m.Count.MaxMonitoredVar != 5 {
		t.Fatalf("high-water %d/%d/%d, want 5/5/5",
			h.m.Count.MaxConditions, h.m.Count.MaxWaitingWGs, h.m.Count.MaxMonitoredVar)
	}
	for i := 0; i < 5; i++ {
		h.update(mem.Addr(0xb00+i*64), gpu.OpStore, 1)
	}
	// High-water marks persist after the waiters drain.
	if h.m.Count.MaxConditions != 5 {
		t.Fatal("high-water mark reset")
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(gpu.OpLoad) != ClassLoad {
		t.Fatal("OpLoad not ClassLoad")
	}
	for _, op := range []gpu.AtomicOp{gpu.OpAdd, gpu.OpExch, gpu.OpCAS, gpu.OpStore} {
		if ClassOf(op) != ClassRMW {
			t.Fatalf("%v not ClassRMW", op)
		}
	}
}

func TestRegisterResultStrings(t *testing.T) {
	if Registered.String() != "registered" || Spilled.String() != "spilled" || Rejected.String() != "rejected" {
		t.Fatal("RegisterResult strings wrong")
	}
}
