package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// emitPerWG emits a dispatch chain on the WG ID: WG i runs the straight-
// line segment seg(i) emits.
func emitPerWG(b *prog.Builder, numWGs int, seg func(wg int)) {
	id := b.Geom(prog.GeomID)
	end := b.Label()
	segs := make([]prog.Label, numWGs)
	for i := range segs {
		segs[i] = b.Label()
		b.Br(prog.EQ, id, prog.Imm(int64(i)), segs[i])
	}
	b.Jmp(end)
	for i := range segs {
		b.Bind(segs[i])
		seg(i)
		b.Jmp(end)
	}
	b.Bind(end)
}

// TestAtomicFunctionalEquivalence: whatever the timing model does with
// scheduling and bank queues, the *functional* outcome of commutative
// atomics must match a sequential model: per-address sums for adds, and
// for exchange chains the final value must be one of the written values.
func TestAtomicFunctionalEquivalence(t *testing.T) {
	f := func(seed int64, nWGsRaw, nOpsRaw uint8) bool {
		nWGs := int(nWGsRaw)%6 + 2
		nOps := int(nOpsRaw)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		addrs := []mem.Addr{0x1000, 0x1040, 0x1080}
		// Pre-generate per-WG op sequences.
		type op struct {
			addr  mem.Addr
			delta int64
		}
		plans := make([][]op, nWGs)
		expected := map[mem.Addr]int64{}
		for i := range plans {
			for j := 0; j < nOps; j++ {
				o := op{addrs[rng.Intn(len(addrs))], int64(rng.Intn(9) - 4)}
				plans[i] = append(plans[i], o)
				expected[o.addr] += o.delta
			}
		}
		spec := irKernel("prop", nWGs, func(b *prog.Builder) {
			emitPerWG(b, nWGs, func(wg int) {
				for _, o := range plans[wg] {
					b.AtomicAddX(b.GVar(uint64(o.addr)), prog.Imm(o.delta))
				}
			})
		})
		cfg := testConfig()
		m, err := NewMachine(cfg, mem.DefaultConfig(), spec, &spinPolicy{})
		if err != nil {
			return false
		}
		if m.Run().Deadlocked {
			return false
		}
		for a, want := range expected {
			if got := m.Mem().Read(a); got != want {
				t.Logf("addr %x: got %d want %d", a, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMutualExclusionProperty: under random critical-section lengths, a
// test-and-set lock must still serialize increments of an unprotected
// counter (read-modify-write through plain loads/stores).
func TestMutualExclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nWGs, iters = 6, 3
		work := make([][]uint64, nWGs)
		for i := range work {
			for j := 0; j < iters; j++ {
				work[i] = append(work[i], uint64(rng.Intn(400)))
			}
		}
		const lock, counter = mem.Addr(0x2000), mem.Addr(0x2040)
		spec := irKernel("mutex-prop", nWGs, func(b *prog.Builder) {
			v, c := b.GVar(uint64(lock)), b.GVar(uint64(counter))
			emitPerWG(b, nWGs, func(wg int) {
				for j := 0; j < iters; j++ {
					b.AcquireExch(v, prog.Imm(1), prog.Imm(0), false)
					x := b.Load(c)
					b.Compute(prog.Imm(int64(work[wg][j]) + 1))
					b.Store(c, b.Add(x, prog.Imm(1)))
					b.AtomicExchX(v, prog.Imm(0))
				}
			})
		})
		m, err := NewMachine(testConfig(), mem.DefaultConfig(), spec, &spinPolicy{})
		if err != nil {
			return false
		}
		if m.Run().Deadlocked {
			return false
		}
		return m.Mem().Read(counter) == int64(nWGs*iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierEpochProperty: no WG may start epoch e+1 before every WG
// finished epoch e. The kernel writes per-WG epoch stamps; after each
// barrier it counts every stamp still behind the epoch into a violation
// word.
func TestBarrierEpochProperty(t *testing.T) {
	const nWGs, epochs = 8, 4
	const count, violations = mem.Addr(0x3000), mem.Addr(0x3040)
	const stampBase = mem.Addr(0x4000)
	spec := irKernel("barrier-prop", nWGs, func(b *prog.Builder) {
		v := b.GVar(uint64(count))
		me := wgSlot(b, stampBase, nWGs, 0)
		work := b.Mul(b.Add(b.Geom(prog.GeomID), prog.Imm(1)), prog.Imm(100))
		e := b.Let(prog.Imm(1))
		epochTop, done := b.Here(), b.Label()
		b.Br(prog.GT, e, prog.Imm(epochs), done)
		b.Compute(work)
		b.Store(me, e)
		emitEpochBarrier(b, v, b.Mul(e, prog.Imm(nWGs)))
		// After the barrier, every stamp must be >= e.
		for i := 0; i < nWGs; i++ {
			ok := b.Label()
			b.Br(prog.GE, b.Load(b.GVar(uint64(slotAddr(stampBase, i)))), e, ok)
			b.AtomicAddX(b.GVar(uint64(violations)), prog.Imm(1))
			b.Bind(ok)
		}
		b.ArithTo(prog.OpAdd, e, e, prog.Imm(1))
		b.Jmp(epochTop)
		b.Bind(done)
	})
	m, err := NewMachine(testConfig(), mem.DefaultConfig(), spec, &spinPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Run().Deadlocked {
		t.Fatal("deadlocked")
	}
	if n := m.Mem().Read(violations); n != 0 {
		t.Fatalf("%d stamps seen behind their epoch: a WG crossed the barrier before everyone arrived", n)
	}
}

// emitEpochBarrier counts in on v and, unless this WG completed the
// target, waits for it.
func emitEpochBarrier(b *prog.Builder, v prog.Mem, target prog.Src) {
	old := b.AtomicAdd(v, prog.Imm(1))
	arrived := b.Label()
	b.Br(prog.EQ, b.Add(old, prog.Imm(1)), target, arrived)
	b.AwaitGE(v, target)
	b.Bind(arrived)
}
