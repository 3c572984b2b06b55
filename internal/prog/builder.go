package prog

import (
	"fmt"
	"slices"
)

// Builder assembles a Program: it allocates registers, interns pool
// addresses, and patches forward branches through labels. The zero Builder
// is not usable; start with NewBuilder.
//
// The emit helpers cover every op kind. Value-producing pure ops
// allocate a fresh register per call site — ops are emitted once at build
// time, so a loop body reuses the same registers on every iteration and
// register files stay small.
type Builder struct {
	code    []Op
	pool    []uint64
	poolIdx map[uint64]int64 // built by the first Addr
	nreg    int
	labels  []int // label -> bound pc, -1 while unbound
}

// Label names a branch target; bind it to a position with Bind.
type Label int

// Mem is a memory operand: a pool-index source plus the synchronization
// scope the access carries. Local-scoped accesses belong to the executing
// WG's scheduling group.
type Mem struct {
	Idx   Src
	Scope Scope
}

// NewBuilder starts an empty program.
func NewBuilder() *Builder { return &Builder{} }

// Grow reserves room for code more ops, labels more labels and addrs more
// interned addresses, so a caller that knows its program's size builds it
// without regrowing.
func (b *Builder) Grow(code, labels, addrs int) {
	b.code = slices.Grow(b.code, code)
	b.labels = slices.Grow(b.labels, labels)
	b.pool = slices.Grow(b.pool, addrs)
	if b.poolIdx == nil {
		b.poolIdx = make(map[uint64]int64, addrs)
	}
}

// Reg allocates a fresh register.
func (b *Builder) Reg() Src {
	r := b.nreg
	b.nreg++
	return R(r)
}

// Addr interns a word address into the pool and returns its index as an
// immediate operand.
func (b *Builder) Addr(a uint64) Src {
	if i, ok := b.poolIdx[a]; ok {
		return Imm(i)
	}
	if b.poolIdx == nil {
		b.poolIdx = make(map[uint64]int64)
	}
	i := int64(len(b.pool))
	b.pool = append(b.pool, a)
	b.poolIdx[a] = i
	return Imm(i)
}

// AddrRange appends addrs contiguously to the pool (no interning) and
// returns the base index, for register-computed indexing into a table.
func (b *Builder) AddrRange(addrs []uint64) int64 {
	base := int64(len(b.pool))
	b.pool = append(b.pool, addrs...)
	return base
}

// GVar is a globally scoped memory operand at a fixed address.
func (b *Builder) GVar(a uint64) Mem { return Mem{Idx: b.Addr(a), Scope: Global} }

// LVar is a locally scoped memory operand at a fixed address (the group is
// the executing WG's).
func (b *Builder) LVar(a uint64) Mem { return Mem{Idx: b.Addr(a), Scope: Local} }

// At is a memory operand whose pool index is computed at run time.
func At(idx Src, scope Scope) Mem { return Mem{Idx: idx, Scope: scope} }

// none fills an operand slot the op kind does not read: the zero Src names
// r0, which Validate rejects in a program that allocates no registers.
var none = Imm(0)

func (b *Builder) emit(op Op) int {
	b.code = append(b.code, op)
	return len(b.code) - 1
}

// --- labels and control flow ---

// Label allocates an unbound label.
func (b *Builder) Label() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind binds l to the next emitted op.
func (b *Builder) Bind(l Label) {
	if b.labels[l] != -1 {
		panic(fmt.Sprintf("prog: label %d bound twice", l))
	}
	b.labels[l] = len(b.code)
}

// Here returns a label bound to the next emitted op.
func (b *Builder) Here() Label {
	l := b.Label()
	b.Bind(l)
	return l
}

// Jmp emits an unconditional branch to l. Until Build, a branch's Target
// holds its label rather than a pc.
func (b *Builder) Jmp(l Label) {
	b.emit(Op{Kind: OpJmp, Dst: -1, Target: int32(l)})
}

// Br emits a conditional branch to l, taken when cmp(a, c) holds.
func (b *Builder) Br(cmp Cmp, a, c Src, l Label) {
	b.emit(Op{Kind: OpBr, Dst: -1, Cmp: cmp, A: a, B: c, Target: int32(l)})
}

// --- pure register ops ---

// Mov emits dst = a into an existing register.
func (b *Builder) Mov(dst, a Src) {
	b.emit(Op{Kind: OpMov, Dst: dst.Reg, A: a})
}

// Let allocates a register initialized to a.
func (b *Builder) Let(a Src) Src {
	r := b.Reg()
	b.Mov(r, a)
	return r
}

func (b *Builder) arith(k OpKind, a, c Src) Src {
	r := b.Reg()
	b.emit(Op{Kind: k, Dst: r.Reg, A: a, B: c})
	return r
}

// ArithTo emits dst = a <k> c into an existing register.
func (b *Builder) ArithTo(k OpKind, dst, a, c Src) {
	b.emit(Op{Kind: k, Dst: dst.Reg, A: a, B: c})
}

// Add emits a + c into a fresh register.
func (b *Builder) Add(a, c Src) Src { return b.arith(OpAdd, a, c) }

// Sub emits a - c into a fresh register.
func (b *Builder) Sub(a, c Src) Src { return b.arith(OpSub, a, c) }

// Mul emits a * c into a fresh register.
func (b *Builder) Mul(a, c Src) Src { return b.arith(OpMul, a, c) }

// Div emits a / c into a fresh register (c == 0 yields 0).
func (b *Builder) Div(a, c Src) Src { return b.arith(OpDiv, a, c) }

// Mod emits a % c into a fresh register (c == 0 yields 0).
func (b *Builder) Mod(a, c Src) Src { return b.arith(OpMod, a, c) }

// Geom reads a launch-geometry constant into a fresh register.
func (b *Builder) Geom(g Geom) Src {
	r := b.Reg()
	b.emit(Op{Kind: OpGeom, Dst: r.Reg, Geom: g})
	return r
}

// --- device ops ---

// Compute advances the WG by cycles of pure computation.
func (b *Builder) Compute(cycles Src) {
	b.emit(Op{Kind: OpCompute, Dst: -1, A: cycles, B: none, C: none})
}

// Load reads the word at m into a fresh register.
func (b *Builder) Load(m Mem) Src {
	r := b.Reg()
	b.emit(Op{Kind: OpLoad, Dst: r.Reg, A: m.Idx, B: none, C: none, Scope: m.Scope})
	return r
}

// Store writes v to the word at m.
func (b *Builder) Store(m Mem, v Src) {
	b.emit(Op{Kind: OpStore, Dst: -1, A: m.Idx, B: v, C: none, Scope: m.Scope})
}

// AtomicAdd fetch-adds delta into m, returning the old value.
func (b *Builder) AtomicAdd(m Mem, delta Src) Src {
	r := b.Reg()
	b.emit(Op{Kind: OpAtomicAdd, Dst: r.Reg, A: m.Idx, B: delta, C: none, Scope: m.Scope})
	return r
}

// AtomicAddX fetch-adds delta into m, discarding the old value.
func (b *Builder) AtomicAddX(m Mem, delta Src) {
	b.emit(Op{Kind: OpAtomicAdd, Dst: -1, A: m.Idx, B: delta, C: none, Scope: m.Scope})
}

// AtomicExch exchanges v into m, returning the old value.
func (b *Builder) AtomicExch(m Mem, v Src) Src {
	r := b.Reg()
	b.emit(Op{Kind: OpAtomicExch, Dst: r.Reg, A: m.Idx, B: v, C: none, Scope: m.Scope})
	return r
}

// AtomicExchX exchanges v into m, discarding the old value.
func (b *Builder) AtomicExchX(m Mem, v Src) {
	b.emit(Op{Kind: OpAtomicExch, Dst: -1, A: m.Idx, B: v, C: none, Scope: m.Scope})
}

// AtomicCAS compare-and-swaps m from cmp to v, returning the old value.
func (b *Builder) AtomicCAS(m Mem, cmp, v Src) Src {
	r := b.Reg()
	b.emit(Op{Kind: OpAtomicCAS, Dst: r.Reg, A: m.Idx, B: cmp, C: v, Scope: m.Scope})
	return r
}

// AtomicLoad reads m at its synchronization point.
func (b *Builder) AtomicLoad(m Mem) Src {
	r := b.Reg()
	b.emit(Op{Kind: OpAtomicLoad, Dst: r.Reg, A: m.Idx, B: none, C: none, Scope: m.Scope})
	return r
}

// AtomicStore writes v to m at its synchronization point.
func (b *Builder) AtomicStore(m Mem, v Src) {
	b.emit(Op{Kind: OpAtomicStore, Dst: -1, A: m.Idx, B: v, C: none, Scope: m.Scope})
}

// SyncThreads emits the intra-WG barrier.
func (b *Builder) SyncThreads() {
	b.emit(Op{Kind: OpSyncThreads, Dst: -1})
}

// AwaitEq blocks until m has been observed equal to want.
func (b *Builder) AwaitEq(m Mem, want Src) {
	b.emit(Op{Kind: OpAwaitEq, Dst: -1, A: m.Idx, B: want, C: none, Scope: m.Scope})
}

// AwaitGE blocks until m has been observed >= want.
func (b *Builder) AwaitGE(m Mem, want Src) {
	b.emit(Op{Kind: OpAwaitGE, Dst: -1, A: m.Idx, B: want, C: none, Scope: m.Scope})
}

// AcquireExch test-and-set acquires m: exchange locked in until the old
// value equals unlocked. hint requests the software-backoff wait form.
func (b *Builder) AcquireExch(m Mem, locked, unlocked Src, hint bool) {
	b.emit(Op{Kind: OpAcquireExch, Dst: -1, A: m.Idx, B: locked, C: unlocked, Scope: m.Scope, Hint: hint})
}

// Build patches branches, validates, and returns the finished program. The
// builder must not be reused afterwards.
func (b *Builder) Build() (*Program, error) {
	for pc := range b.code {
		op := &b.code[pc]
		if op.Kind != OpJmp && op.Kind != OpBr {
			continue
		}
		at := b.labels[op.Target]
		if at == -1 {
			return nil, fmt.Errorf("prog: label %d never bound", op.Target)
		}
		op.Target = int32(at)
	}
	p := &Program{NumRegs: b.nreg, Pool: b.pool, Code: b.code}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for programs whose shape is statically known; it
// panics on a builder bug.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
