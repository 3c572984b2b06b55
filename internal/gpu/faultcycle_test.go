package gpu

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/prog"
)

// TestRepeatedPreemptRestoreAccounting flaps both CUs through six
// loss/restore rounds at odd strides — landing preemptions mid-atomic and
// mid-context-switch — on an oversubscribed launch with a real LDS
// footprint, then checks every CU's resource pools (WG slots, wavefront
// slots, LDS) drained back to exactly their configured capacity.
func TestRepeatedPreemptRestoreAccounting(t *testing.T) {
	cfg := testConfig() // 2 CUs, 4 WGs/CU
	spec := irKernel("flap-accounting", 16, func(b *prog.Builder) {
		v := b.GVar(0x8000)
		consumer, end := b.Label(), b.Label()
		b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(0), consumer)
		b.Compute(prog.Imm(120_000))
		b.AtomicStore(v, prog.Imm(1))
		b.Jmp(end)
		b.Bind(consumer)
		b.Compute(prog.Imm(1_000))
		b.AwaitEq(v, prog.Imm(1))
		b.Bind(end)
	})
	spec.LDSBytes = 1024
	m := newTestMachine(t, cfg, spec, &yieldPolicy{})
	// Odd, co-prime strides so the outages drift across every phase of the
	// atomic and context-switch pipelines over the rounds. The two CUs'
	// outages briefly overlap in some rounds; both restores always land
	// within a few thousand cycles, far inside the progress window.
	for i := 0; i < 6; i++ {
		at := event.Cycle(5_000 + 17_123*i)
		m.ScheduleCU(at, 1, false)
		m.ScheduleCU(at+7_919, 1, true)
		m.ScheduleCU(at+3_557, 0, false)
		m.ScheduleCU(at+9_973, 0, true)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatalf("deadlocked under repeated preempt/restore: %v", res.Diagnosis)
	}
	if res.Completed != 16 {
		t.Fatalf("completed %d WGs, want 16", res.Completed)
	}
	if res.SwitchesOut == 0 {
		t.Fatal("flapping CUs recorded no context switches")
	}
	if got := m.EnabledCUs(); got != cfg.NumCUs {
		t.Fatalf("EnabledCUs = %d, want %d", got, cfg.NumCUs)
	}
	for id := 0; id < cfg.NumCUs; id++ {
		cu := m.sched.cu(CUID(id))
		if !cu.enabled {
			t.Errorf("cu%d left disabled", id)
		}
		if cu.wgSlots != cfg.MaxWGsPerCU {
			t.Errorf("cu%d wgSlots = %d, want %d", id, cu.wgSlots, cfg.MaxWGsPerCU)
		}
		if cu.wfSlots != cfg.wfSlotsPerCU() {
			t.Errorf("cu%d wfSlots = %d, want %d", id, cu.wfSlots, cfg.wfSlotsPerCU())
		}
		if cu.ldsFree != cfg.LDSPerCU {
			t.Errorf("cu%d ldsFree = %d, want %d", id, cu.ldsFree, cfg.LDSPerCU)
		}
		if len(cu.resident) != 0 {
			t.Errorf("cu%d still hosts %d WGs", id, len(cu.resident))
		}
	}
}
