package gpu

import (
	"testing"

	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// Word layout of the fuzz programs, every word a cache line apart like the
// kernel library's allocator: shared global and local counters, and a
// private table of fuzzPrivWords words per WG.
const (
	fuzzVarBase   = 0x1000
	fuzzPrivBase  = 0x8000
	fuzzPrivWords = 4
	fuzzWGs       = 8
)

// fuzzProgram decodes data into a valid IR program whose final memory does
// not depend on how WGs interleave: a bounded loop whose body mixes pure
// arithmetic, geometry reads, compute, intra-WG barriers, result-less
// immediate adds to shared global and local counters (which commute), and
// every other memory op on the executing WG's private word table — indexed
// from GeomID through an AddrRange, by an immediate or a register-computed
// offset. No register ever observes a shared word, so each WG's execution
// is fully determined by its own geometry. The wait/acquire ops stay out:
// a random lock protocol rarely terminates, and the litmus harness covers
// waits against its own untimed oracle (kernels.FairFinal).
func fuzzProgram(data []byte) *prog.Program {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	b := prog.NewBuilder()
	shared := func() prog.Mem { return b.GVar(fuzzVarBase + 64*uint64(next()%8)) }
	local := func() prog.Mem { return b.LVar(64 * uint64(next()%4)) }
	privAddrs := make([]uint64, fuzzWGs*fuzzPrivWords)
	for i := range privAddrs {
		privAddrs[i] = fuzzPrivBase + 64*uint64(i)
	}
	wgBase := b.Add(prog.Imm(b.AddrRange(privAddrs)), b.Mul(b.Geom(prog.GeomID), prog.Imm(fuzzPrivWords)))
	regs := []prog.Src{b.Geom(prog.GeomID), b.Geom(prog.GeomIndexInGroup)}
	val := func() prog.Src {
		if n := next(); n%2 == 0 {
			return regs[int(n/2)%len(regs)]
		} else {
			return prog.Imm(int64(n%7) - 3)
		}
	}
	priv := func() prog.Mem {
		if n := next(); n%2 == 0 {
			return prog.At(b.Add(wgBase, prog.Imm(int64(n/2)%fuzzPrivWords)), prog.Global)
		}
		// A register-computed offset, folded into [0, fuzzPrivWords).
		k := b.Mod(b.Add(b.Mod(val(), prog.Imm(fuzzPrivWords)), prog.Imm(fuzzPrivWords)), prog.Imm(fuzzPrivWords))
		return prog.At(b.Add(wgBase, k), prog.Global)
	}
	iters := 1 + int64(next()%3)
	i := b.Let(prog.Imm(0))
	top := b.Here()
	steps := min(len(data), 48)
	for s := 0; s < steps; s++ {
		switch next() % 13 {
		case 0:
			b.Compute(prog.Imm(int64(1 + next()%16)))
		case 1:
			regs = append(regs, b.Load(priv()))
		case 2:
			b.Store(priv(), val())
		case 3:
			regs = append(regs, b.AtomicAdd(priv(), val()))
		case 4:
			b.AtomicAddX(shared(), prog.Imm(int64(next()%5)-2))
		case 5:
			regs = append(regs, b.AtomicExch(priv(), val()))
		case 6:
			regs = append(regs, b.AtomicCAS(priv(), prog.Imm(int64(next()%3)), val()))
		case 7:
			regs = append(regs, b.AtomicLoad(priv()))
		case 8:
			b.AtomicStore(priv(), val())
		case 9:
			regs = append(regs, b.Add(val(), val()))
		case 10:
			regs = append(regs, b.Mod(val(), val())) // divisor 0 yields 0 by spec
		case 11:
			b.SyncThreads()
		case 12:
			b.AtomicAddX(local(), prog.Imm(int64(next()%5)-2))
		}
	}
	b.ArithTo(prog.OpAdd, i, i, prog.Imm(1))
	b.Br(prog.LT, i, prog.Imm(iters), top)
	return b.MustBuild()
}

// refEval is the fuzzer's untimed reference: it runs each WG's program to
// the end, one WG after another, against a plain map memory, with WG i at
// group i/groupSize and rank i%groupSize. It shares no code with the
// machine's interpreter. fuzzProgram's discipline makes the final memory
// independent of interleaving, so this one sequential order must agree
// with whatever schedule the machine produces.
func refEval(t *testing.T, p *prog.Program, numWGs, groupSize int) map[uint64]int64 {
	memv := make(map[uint64]int64)
	for id := 0; id < numWGs; id++ {
		var geom [6]int64
		geom[prog.GeomID] = int64(id)
		geom[prog.GeomNumWGs] = int64(numWGs)
		geom[prog.GeomWIsPerWG] = 64
		geom[prog.GeomGroup] = int64(id / groupSize)
		geom[prog.GeomGroupSize] = int64(groupSize)
		geom[prog.GeomIndexInGroup] = int64(id % groupSize)
		regs := make([]int64, p.NumRegs)
		src := func(s prog.Src) int64 {
			if s.Reg >= 0 {
				return regs[s.Reg]
			}
			return s.Imm
		}
		word := func(s prog.Src) uint64 {
			i := src(s)
			if i < 0 || i >= int64(len(p.Pool)) {
				t.Fatalf("refEval: WG %d addresses pool[%d] of %d", id, i, len(p.Pool))
			}
			return p.Pool[i]
		}
		ret := func(dst int16, v int64) {
			if dst >= 0 {
				regs[dst] = v
			}
		}
		for pc := 0; pc < len(p.Code); {
			op := p.Code[pc]
			pc++
			switch op.Kind {
			case prog.OpMov:
				regs[op.Dst] = src(op.A)
			case prog.OpAdd:
				regs[op.Dst] = src(op.A) + src(op.B)
			case prog.OpSub:
				regs[op.Dst] = src(op.A) - src(op.B)
			case prog.OpMul:
				regs[op.Dst] = src(op.A) * src(op.B)
			case prog.OpDiv, prog.OpMod:
				a, d := src(op.A), src(op.B)
				switch {
				case d == 0:
					regs[op.Dst] = 0
				case op.Kind == prog.OpDiv:
					regs[op.Dst] = a / d
				default:
					regs[op.Dst] = a % d
				}
			case prog.OpGeom:
				regs[op.Dst] = geom[op.Geom]
			case prog.OpJmp:
				pc = int(op.Target)
			case prog.OpBr:
				if op.Cmp.Test(src(op.A), src(op.B)) {
					pc = int(op.Target)
				}
			case prog.OpCompute, prog.OpSyncThreads:
				// Timing only.
			case prog.OpLoad, prog.OpAtomicLoad:
				ret(op.Dst, memv[word(op.A)])
			case prog.OpStore, prog.OpAtomicStore:
				memv[word(op.A)] = src(op.B)
			case prog.OpAtomicAdd:
				a, delta := word(op.A), src(op.B)
				old := memv[a]
				memv[a] = old + delta
				ret(op.Dst, old)
			case prog.OpAtomicExch:
				a, v := word(op.A), src(op.B)
				old := memv[a]
				memv[a] = v
				ret(op.Dst, old)
			case prog.OpAtomicCAS:
				a, cmp, v := word(op.A), src(op.B), src(op.C)
				old := memv[a]
				if old == cmp {
					memv[a] = v
				}
				ret(op.Dst, old)
			default:
				t.Fatalf("refEval: fuzzProgram never emits %s", op.Kind)
			}
		}
	}
	return memv
}

// FuzzProgIR checks the machine's interpreter against refEval: a random
// program runs to completion on the timed machine, and every word the
// program can address must end with the reference's value.
func FuzzProgIR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23})
	f.Add([]byte("atomic soup: add exch cas load store"))
	f.Add([]byte{0xff, 0x00, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		cfg := testConfig() // 2 CUs x 4: WG i in group i/4 at rank i%4
		spec := &KernelSpec{Name: "fuzz", NumWGs: fuzzWGs, WIsPerWG: 64, IR: p}
		m := newTestMachine(t, cfg, spec, nil)
		if res := m.Run(); res.Deadlocked {
			t.Fatalf("fuzz program deadlocked: %+v", res.Diagnosis)
		}
		want := refEval(t, p, fuzzWGs, cfg.MaxWGsPerCU)
		for _, a := range p.Pool {
			if got := m.Mem().Read(mem.Addr(a)); got != want[a] {
				t.Errorf("word %#x = %d, reference %d", a, got, want[a])
			}
		}
	})
}
