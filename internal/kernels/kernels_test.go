package kernels

import (
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/policy"
	"awgsim/internal/prog"
)

func testParams() Params {
	return Params{NumWGs: 16, Groups: 4, WIsPerWG: 64, Iters: 3, CSWork: 100, OutsideWork: 100}
}

func TestAddrAlloc(t *testing.T) {
	a := NewAddrAlloc(0x1000)
	w1, w2 := a.Word(), a.Word()
	if w1 != 0x1000 || w2 != 0x1040 {
		t.Fatalf("words %x %x, want line-strided from 0x1000", w1, w2)
	}
	ws := a.Words(3)
	if len(ws) != 3 || ws[0] != 0x1080 || ws[2] != 0x1100 {
		t.Fatalf("Words(3) = %x", ws)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.NumWGs = 10 // not divisible by 8 groups
	if err := bad.validate(); err == nil {
		t.Error("indivisible WG count accepted")
	}
	bad = DefaultParams()
	bad.Iters = 0
	if err := bad.validate(); err == nil {
		t.Error("zero iters accepted")
	}
}

func TestWGsPerGroup(t *testing.T) {
	p := DefaultParams()
	if p.WGsPerGroup()*p.Groups != p.NumWGs {
		t.Fatalf("groups %d x L %d != G %d", p.Groups, p.WGsPerGroup(), p.NumWGs)
	}
}

func TestGroupMembersMatchMachinePlacement(t *testing.T) {
	// lfTreeBarrierIR iterates a group's members as the contiguous ID range
	// [g*L, (g+1)*L): for valid params that must be exactly the machine's
	// blocked placement, group (id / L) % Groups.
	p := testParams()
	l := p.WGsPerGroup()
	for id := 0; id < p.NumWGs; id++ {
		if g := (id / l) % p.Groups; id < g*l || id >= (g+1)*l {
			t.Fatalf("WG %d placed in group %d, outside its contiguous range", id, g)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	if len(All()) != 12 {
		t.Fatalf("All() lists %d benchmarks, want 12", len(All()))
	}
	for _, name := range append(All(), Apps()...) {
		b, err := Build(name, testParams())
		if err != nil {
			t.Errorf("Build(%s): %v", name, err)
			continue
		}
		if b.Spec.Name != name {
			t.Errorf("%s spec named %q", name, b.Spec.Name)
		}
		if b.Spec.IR == nil {
			t.Errorf("%s has no program", name)
		}
		if b.Verify == nil {
			t.Errorf("%s has no validation", name)
		}
	}
	if _, err := Get("NoSuchBenchmark"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	bad := testParams()
	bad.NumWGs = 0
	for _, name := range All() {
		if _, err := Build(name, bad); err == nil {
			t.Errorf("%s accepted zero WGs", name)
		}
	}
}

func TestContextSizesSpanPaperRange(t *testing.T) {
	// Figure 5: context sizes range roughly 2–10 KB across the suite.
	p := testParams()
	min, max := 1<<30, 0
	for _, name := range All() {
		b, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		c := b.Spec.ContextBytes(64)
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min < 2000 || min > 4000 {
		t.Errorf("smallest context %d B, want ~2-4 KB", min)
	}
	if max < 8000 || max > 11000 {
		t.Errorf("largest context %d B, want ~8-10 KB", max)
	}
}

func TestTreeBarrierTargets(t *testing.T) {
	b := TreeBarrier{Groups: 4}
	// Group of 4: epoch 1 arrives at 4, releases at 5; epoch 2 arrives at
	// 9, releases at 10 (the counter advances GroupSize+1 per epoch).
	for _, tc := range []struct {
		epoch           int64
		arrive, release int64
	}{{1, 4, 5}, {2, 9, 10}, {3, 14, 15}} {
		a, r := b.LocalTargets(4, tc.epoch)
		if a != tc.arrive || r != tc.release {
			t.Errorf("epoch %d: targets (%d,%d), want (%d,%d)", tc.epoch, a, r, tc.arrive, tc.release)
		}
	}
}

func TestSkewedWorkDeterministicAndBounded(t *testing.T) {
	p := testParams()
	for wg := 0; wg < p.NumWGs; wg++ {
		for i := 0; i < p.Iters; i++ {
			a := skewedWork(p, wg, i)
			b := skewedWork(p, wg, i)
			if a != b {
				t.Fatal("skewed work not deterministic")
			}
			if a < p.OutsideWork/2 || a > p.OutsideWork*4 {
				t.Fatalf("skewed work %d outside [0.5x, 4x] of %d", a, p.OutsideWork)
			}
		}
	}
	// The skew must actually vary across WGs.
	seen := map[uint64]bool{}
	for wg := 0; wg < p.NumWGs; wg++ {
		seen[uint64(skewedWork(p, wg, 0))] = true
	}
	if len(seen) < 3 {
		t.Fatalf("skew produced only %d distinct values across %d WGs", len(seen), p.NumWGs)
	}
}

// TestIRSkewedWorkMatchesReference runs irSkewedWork on the machine for
// every (WG, round) of a small launch and checks each value against
// skewedWork, the formula's Go reference.
func TestIRSkewedWorkMatchesReference(t *testing.T) {
	p := testParams()
	out := NewAddrAlloc(0x1000).Words(p.NumWGs * p.Iters)
	b := prog.NewBuilder()
	base := b.AddrRange(addrWords(out))
	wg := b.Geom(prog.GeomID)
	row := b.Add(prog.Imm(base), b.Mul(wg, prog.Imm(int64(p.Iters))))
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Store(prog.At(b.Add(row, i), prog.Global), irSkewedWork(b, p, wg, i))
	})
	spec := &gpu.KernelSpec{Name: "skew", NumWGs: p.NumWGs, WIsPerWG: p.WIsPerWG, IR: b.MustBuild()}
	cfg := gpu.DefaultConfig()
	cfg.NumCUs, cfg.MaxWGsPerCU = p.Groups, p.WGsPerGroup()
	m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, policy.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	for wg := 0; wg < p.NumWGs; wg++ {
		for i := 0; i < p.Iters; i++ {
			if got, want := m.Mem().Read(out[wg*p.Iters+i]), int64(skewedWork(p, wg, i)); got != want {
				t.Errorf("WG %d round %d: IR skew %d, reference %d", wg, i, got, want)
			}
		}
	}
}
