package gpu

import (
	"testing"
	"testing/quick"

	"awgsim/internal/prog"
)

func TestAtomicOpApply(t *testing.T) {
	cases := []struct {
		op          AtomicOp
		old, a, b   int64
		newVal, ret int64
	}{
		{OpAdd, 5, 3, 0, 8, 5},
		{OpAdd, -2, 2, 0, 0, -2},
		{OpExch, 7, 1, 0, 1, 7},
		{OpCAS, 0, 0, 9, 9, 0}, // matches: swap
		{OpCAS, 4, 0, 9, 4, 4}, // mismatch: unchanged
		{OpLoad, 11, 0, 0, 11, 11},
		{OpStore, 11, 3, 0, 3, 11},
	}
	for _, c := range cases {
		newVal, ret := c.op.Apply(c.old, c.a, c.b)
		if newVal != c.newVal || ret != c.ret {
			t.Errorf("%v.Apply(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.op, c.old, c.a, c.b, newVal, ret, c.newVal, c.ret)
		}
	}
}

func TestAtomicOpIsWrite(t *testing.T) {
	if OpLoad.IsWrite() {
		t.Error("OpLoad reported as write")
	}
	for _, op := range []AtomicOp{OpAdd, OpExch, OpCAS, OpStore} {
		if !op.IsWrite() {
			t.Errorf("%v not reported as write", op)
		}
	}
}

func TestAtomicOpStrings(t *testing.T) {
	for op, want := range map[AtomicOp]string{
		OpAdd: "add", OpExch: "exch", OpCAS: "cas", OpLoad: "load", OpStore: "store",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if AtomicOp(99).String() != "?" {
		t.Error("unknown op did not render as ?")
	}
}

func TestUnknownOpApplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on unknown op did not panic")
		}
	}()
	AtomicOp(99).Apply(0, 0, 0)
}

func TestCmpTest(t *testing.T) {
	if !CmpEQ.Test(3, 3) || CmpEQ.Test(3, 4) {
		t.Error("CmpEQ wrong")
	}
	if !CmpGE.Test(4, 3) || !CmpGE.Test(3, 3) || CmpGE.Test(2, 3) {
		t.Error("CmpGE wrong")
	}
	if CmpEQ.String() != "==" || CmpGE.String() != ">=" {
		t.Error("Cmp strings wrong")
	}
}

func TestCmpGEImpliesEQAtTarget(t *testing.T) {
	f := func(v int64) bool {
		return !CmpEQ.Test(v, v) == false && CmpGE.Test(v, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScopeAndVarHelpers(t *testing.T) {
	g := GlobalVar(0x100)
	if g.Scope != Global || g.Addr != 0x100 {
		t.Errorf("GlobalVar = %+v", g)
	}
	l := LocalVar(0x200, 3)
	if l.Scope != Local || l.Group != 3 {
		t.Errorf("LocalVar = %+v", l)
	}
	if Global.String() != "global" || Local.String() != "local" {
		t.Error("scope strings wrong")
	}
}

func TestWGStateStrings(t *testing.T) {
	states := map[WGState]string{
		StatePending: "pending", StateResident: "resident",
		StateSwitchingOut: "switching-out", StateSwitchedOut: "switched-out",
		StateReady: "ready", StateSwitchingIn: "switching-in", StateDone: "done",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if WGState(42).String() != "?" {
		t.Error("unknown state did not render as ?")
	}
}

func TestKernelSpecWavefronts(t *testing.T) {
	k := KernelSpec{WIsPerWG: 64}
	if k.Wavefronts(64) != 1 {
		t.Errorf("64 WIs = %d WFs at width 64", k.Wavefronts(64))
	}
	k.WIsPerWG = 65
	if k.Wavefronts(64) != 2 {
		t.Errorf("65 WIs = %d WFs at width 64", k.Wavefronts(64))
	}
	k.WIsPerWG = 1024
	if k.Wavefronts(64) != 16 {
		t.Errorf("1024 WIs = %d WFs", k.Wavefronts(64))
	}
}

func TestKernelSpecContextBytes(t *testing.T) {
	// 64 WIs x 8 VGPRs x 4B + 1 WF x 128 SGPRs x 4B + 1 KB LDS.
	k := KernelSpec{WIsPerWG: 64, VGPRsPerWI: 8, SGPRsPerWF: 128, LDSBytes: 1024}
	want := 64*8*4 + 128*4 + 1024
	if got := k.ContextBytes(64); got != want {
		t.Errorf("ContextBytes = %d, want %d", got, want)
	}
}

func TestKernelSpecValidate(t *testing.T) {
	ir := emptyKernel(1).IR
	valid := KernelSpec{Name: "k", NumWGs: 1, WIsPerWG: 1, IR: ir}
	if err := valid.validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []KernelSpec{
		{NumWGs: 1, WIsPerWG: 1, IR: ir},
		{Name: "k", WIsPerWG: 1, IR: ir},
		{Name: "k", NumWGs: 1, IR: ir},
		{Name: "k", NumWGs: 1, WIsPerWG: 1},
		{Name: "k", NumWGs: 1, WIsPerWG: 1, IR: &prog.Program{NumRegs: -1}},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumCUs = 0
	if err := bad.validate(); err == nil {
		t.Error("zero-CU config accepted")
	}
	bad = DefaultConfig()
	bad.ProgressWindow = 0
	if err := bad.validate(); err == nil {
		t.Error("zero progress window accepted")
	}
	bad = DefaultConfig()
	bad.MaxWGsPerCU = -1
	if err := bad.validate(); err == nil {
		t.Error("negative occupancy cap accepted")
	}
}

func TestComputeUnitAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cu := newComputeUnit(0, cfg)
	spec := &KernelSpec{Name: "k", NumWGs: 1, WIsPerWG: 64, LDSBytes: 1024}
	if !cu.canHost(spec, cfg.SIMDWidth) {
		t.Fatal("fresh CU cannot host a 1-WF WG")
	}
	hosted := 0
	for cu.canHost(spec, cfg.SIMDWidth) {
		w := &WG{id: WGID(hosted), spec: spec}
		cu.host(w, cfg.SIMDWidth)
		hosted++
	}
	if hosted != cfg.MaxWGsPerCU {
		t.Fatalf("hosted %d WGs, want occupancy cap %d", hosted, cfg.MaxWGsPerCU)
	}
	// Releasing one makes room for exactly one more.
	w := cu.resident[0]
	cu.release(w, cfg.SIMDWidth)
	if !cu.canHost(spec, cfg.SIMDWidth) {
		t.Fatal("CU full after release")
	}
	if w.cu != NoCU {
		t.Fatal("released WG still assigned a CU")
	}
}

func TestComputeUnitLDSLimit(t *testing.T) {
	cfg := DefaultConfig()
	cu := newComputeUnit(0, cfg)
	big := &KernelSpec{Name: "k", NumWGs: 1, WIsPerWG: 64, LDSBytes: cfg.LDSPerCU/2 + 1}
	cu.host(&WG{id: 0, spec: big}, cfg.SIMDWidth)
	if cu.canHost(big, cfg.SIMDWidth) {
		t.Fatal("two WGs using >half the LDS each both hosted")
	}
}

func TestComputeUnitDoubleReleasePanics(t *testing.T) {
	cfg := DefaultConfig()
	cu := newComputeUnit(0, cfg)
	spec := &KernelSpec{Name: "k", NumWGs: 1, WIsPerWG: 64}
	w := &WG{id: 0, spec: spec}
	cu.host(w, cfg.SIMDWidth)
	cu.release(w, cfg.SIMDWidth)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	cu.release(w, cfg.SIMDWidth)
}
