package gpu

import "testing"

// evictMidAtomicPolicy busy-waits like spinPolicy but force-evicts WG 1 one
// cycle after its first atomic issues — while the operation is still in
// flight to the L2.
type evictMidAtomicPolicy struct {
	m       *Machine
	evicted bool
}

func (p *evictMidAtomicPolicy) Name() string            { return "evict-mid-atomic" }
func (p *evictMidAtomicPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *evictMidAtomicPolicy) Wait(w *WG, v Var, op AtomicOp, a, b, want int64, cmp Cmp, _ WaitHint, done func(int64)) {
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, v, op, a, b, nil, func(ret int64) {
			if cmp.Test(ret, want) {
				done(ret)
				return
			}
			p.m.Engine().After(16, attempt)
		})
		if !p.evicted && w.ID() == 1 {
			p.evicted = true
			p.m.Engine().After(1, func() { p.m.sched.forceEvict(w) })
		}
	}
	attempt()
}

func TestForceEvictMidAtomic(t *testing.T) {
	// WG 1 is evicted between its atomic's issue and response. The response
	// must survive the switch-out (the retry parks until the WG is resident
	// again) and the run must still complete.
	cfg := testConfig()
	cfg.NumCUs = 1
	m := newTestMachine(t, cfg, handoffKernel("evict-mid-atomic", 2, 0x8000, 20_000), &evictMidAtomicPolicy{})
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked after mid-atomic eviction")
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d WGs, want 2", res.Completed)
	}
	if res.SwitchesOut == 0 {
		t.Fatal("forced eviction recorded no switch-out")
	}
}

func TestPreemptThenImmediateRestore(t *testing.T) {
	// RestoreCU in the same cycle as PreemptCU: the resident WGs are already
	// committed to switching out, but the CU is eligible again, so the run
	// completes at full width.
	cfg := testConfig()
	m := newTestMachine(t, cfg, handoffKernel("preempt-restore", 8, 0x8000, 60_000), &yieldPolicy{})
	m.Engine().At(10_000, func() {
		m.PreemptCU(1)
		m.RestoreCU(1)
	})
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked after preempt+restore")
	}
	if m.EnabledCUs() != 2 {
		t.Fatalf("EnabledCUs = %d, want 2", m.EnabledCUs())
	}
	if res.SwitchesOut == 0 {
		t.Fatal("preemption recorded no switch-out")
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d WGs, want 8", res.Completed)
	}
}

func TestDispatchStarvationAllCUsDisabled(t *testing.T) {
	// With every CU preempted nothing can dispatch; the watchdog must
	// declare the run deadlocked rather than hang.
	cfg := testConfig()
	cfg.ProgressWindow = 50_000
	m := newTestMachine(t, cfg, computeKernel("starve", 8, 1000), &yieldPolicy{})
	m.Engine().At(0, func() {
		m.PreemptCU(0)
		m.PreemptCU(1)
	})
	res := m.Run()
	if !res.Deadlocked {
		t.Fatal("run with every CU disabled did not report deadlock")
	}
	if res.Completed != 0 {
		t.Fatalf("completed %d WGs with no enabled CU", res.Completed)
	}
	if m.EnabledCUs() != 0 {
		t.Fatalf("EnabledCUs = %d, want 0", m.EnabledCUs())
	}
}

func TestDispatchResumesAfterRestore(t *testing.T) {
	// Same full-disable, but the CUs come back before the watchdog fires;
	// the pending launch must then drain normally.
	cfg := testConfig()
	m := newTestMachine(t, cfg, computeKernel("starve-restore", 8, 1000), &yieldPolicy{})
	m.Engine().At(0, func() {
		m.PreemptCU(0)
		m.PreemptCU(1)
	})
	m.Engine().At(20_000, func() {
		m.RestoreCU(0)
		m.RestoreCU(1)
	})
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked despite restored CUs")
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d WGs, want 8", res.Completed)
	}
}
