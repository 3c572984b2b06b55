package gpu

import (
	"reflect"
	"testing"

	"awgsim/internal/metrics"
	"awgsim/internal/prog"
)

// holdPolicy busy-waits like spinPolicy and tells the deadlock proof that
// its waiters never yield a slot.
type holdPolicy struct{ spinPolicy }

func (*holdPolicy) NeverYields() bool { return true }

func TestFrozen(t *testing.T) {
	lock := GlobalVar(0x7000)
	for _, c := range []struct {
		name string
		op   WaitOp
		cur  int64
		met  bool // an attempt has applied with a meeting value
		want bool
	}{
		{"await unmet", WaitOp{Var: lock, Op: OpLoad, Want: 1, Cmp: CmpEQ}, 0, false, true},
		{"await met", WaitOp{Var: lock, Op: OpLoad, Want: 1, Cmp: CmpEQ}, 1, false, false},
		{"await GE unmet", WaitOp{Var: lock, Op: OpLoad, Want: 5, Cmp: CmpGE}, 4, false, true},
		{"exch on a held lock", WaitOp{Var: lock, Op: OpExch, A: 1, Want: 0, Cmp: CmpEQ}, 1, false, true},
		{"exch overwriting another value", WaitOp{Var: lock, Op: OpExch, A: 1, Want: 0, Cmp: CmpEQ}, 2, false, false},
		{"won exch's response in flight", WaitOp{Var: lock, Op: OpExch, A: 1, Want: 0, Cmp: CmpEQ}, 1, true, false},
	} {
		m := newTestMachine(t, testConfig(), stuckKernel(1, 0x7000), nil)
		w := m.allWGs[0]
		if m.frozen(w) {
			t.Errorf("%s: a WG without an episode is frozen", c.name)
		}
		w.waiting, w.wait, w.metAttempt = true, c.op, c.met
		m.mem.Write(lock.Addr, c.cur)
		if got := m.frozen(w); got != c.want {
			t.Errorf("%s: frozen = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestProvenDeadlockRule sets up the sealed case by hand: one CU with one
// slot, held by a resident waiter frozen on a word no one writes, and a
// started holder queued ready that no CU can host. Each edit breaks one
// condition of the rule.
func TestProvenDeadlockRule(t *testing.T) {
	frozenOp := WaitOp{Var: GlobalVar(0x7000), Op: OpLoad, Want: 1, Cmp: CmpEQ}
	for _, c := range []struct {
		name string
		edit func(m *Machine, holder *WG)
		want bool
	}{
		{"sealed", func(*Machine, *WG) {}, true},
		{"holder's atomic still to apply", func(_ *Machine, h *WG) { h.applying = 1 }, false},
		{"holder's won attempt in flight", func(_ *Machine, h *WG) { h.metAttempt = true }, false},
		{"holder switching in", func(_ *Machine, h *WG) { h.state = StateSwitchingIn }, false},
		{"holder's start not yet run", func(_ *Machine, h *WG) { h.started = false }, false},
		{"a slot free", func(m *Machine, _ *WG) { m.sched.cu(0).wgSlots++ }, false},
		{"restore due", func(m *Machine, _ *WG) { m.restoresDue++ }, false},
		{"launch due", func(m *Machine, _ *WG) { m.launchesDue++ }, false},
		{"yielding policy", func(m *Machine, _ *WG) { m.neverYields = false }, false},
		{"yielding policy, holder frozen too", func(m *Machine, h *WG) {
			m.neverYields = false
			h.waiting, h.wait = true, frozenOp
		}, true},
		{"resident waiter not frozen", func(m *Machine, _ *WG) { m.mem.Write(0x7000, 1) }, false},
	} {
		cfg := testConfig()
		cfg.NumCUs, cfg.MaxWGsPerCU = 1, 1
		m := newTestMachine(t, cfg, stuckKernel(2, 0x7000), &holdPolicy{})
		waiter, holder := m.allWGs[0], m.allWGs[1]
		m.sched.pending = nil
		m.sched.cu(0).host(waiter, cfg.SIMDWidth)
		waiter.state, waiter.started = StateResident, true
		waiter.waiting, waiter.wait = true, frozenOp
		holder.state, holder.started = StateReady, true
		m.sched.readyQueue = []*WG{holder}
		c.edit(m, holder)
		if got := m.provenDeadlock(); got != c.want {
			t.Errorf("%s: provenDeadlock = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDiagnosisKeysConditionsOnCmp stalls two WGs on one unwritten word,
// WG 0 waiting for `== 1` and WG 1 for `>= 1`. Address and wanted value
// alike, the two waits are different conditions, so the diagnosis lists
// each with its own waiter.
func TestDiagnosisKeysConditionsOnCmp(t *testing.T) {
	const word = 0x7000
	spec := irKernel("eq-ge", 2, func(b *prog.Builder) {
		v := b.GVar(word)
		ge, end := b.Label(), b.Label()
		b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(0), ge)
		b.AwaitEq(v, prog.Imm(1))
		b.Jmp(end)
		b.Bind(ge)
		b.AwaitGE(v, prog.Imm(1))
		b.Bind(end)
	})
	res := newTestMachine(t, testConfig(), spec, nil).Run()
	if !res.Deadlocked || res.Diagnosis == nil {
		t.Fatalf("run did not stall: deadlocked=%v diagnosis=%v", res.Deadlocked, res.Diagnosis)
	}
	want := []metrics.BlockedCond{
		{Addr: word, Want: 1, Cmp: "==", Waiters: []int{0}},
		{Addr: word, Want: 1, Cmp: ">=", Waiters: []int{1}},
	}
	if got := res.Diagnosis.Conditions; !reflect.DeepEqual(got, want) {
		t.Fatalf("conditions = %+v, want %+v", got, want)
	}
}
