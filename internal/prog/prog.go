// Package prog defines the register-machine program IR every WG kernel is
// written in. A Program is plain data — an address pool, a register count,
// and a flat op list — covering every device operation a WG can issue
// (compute, loads/stores, the five atomics, SyncThreads, the policy-lowered
// waits and acquires) plus the control flow the HeteroSync-style kernels
// need: bounded loops and branches over registers, and per-WG
// launch-geometry constants (ID, group, rank).
//
// Because a Program is declarative data with no captured host state, the
// machine executes it inline — a resumable frame (pc + register file)
// advanced directly in the response path — and a run is a pure function
// of its configuration, which is what lets the fleet layer rewind a
// workload by re-running it.
//
// Operands are Src values: a register index or an int64 immediate. Memory
// operands are *pool indices* — the operand's value selects an address from
// Program.Pool — so address arithmetic stays in registers and a validated
// program can never touch an address outside its declared pool.
package prog

import "fmt"

// Scope mirrors gpu.Scope without importing it: the synchronization scope
// of a memory-op's variable. Local variables belong to the executing WG's
// scheduling group.
type Scope uint8

const (
	Global Scope = iota
	Local
)

// Cmp is the comparison OpBr applies between its two operands.
type Cmp uint8

const (
	EQ Cmp = iota
	NE
	LT
	LE
	GT
	GE
)

// Test applies the comparison.
func (c Cmp) Test(a, b int64) bool {
	switch c {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}

func (c Cmp) String() string {
	switch c {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	default:
		return ">="
	}
}

// Geom selects a launch-geometry constant for OpGeom.
type Geom uint8

const (
	GeomID Geom = iota // globally unique WG ID
	GeomNumWGs
	GeomWIsPerWG
	GeomGroup        // scheduling group (home CU)
	GeomGroupSize    // WGs sharing the group
	GeomIndexInGroup // rank within the group
	geomCount
)

// OpKind enumerates the IR's operations. Pure ops execute inside the
// interpreter with no simulated cost (they model the ALU work a real kernel
// interleaves between synchronization operations); device ops issue one
// simulated device operation each.
type OpKind uint8

const (
	// Pure register ops.
	OpMov  OpKind = iota // dst = A
	OpAdd                // dst = A + B
	OpSub                // dst = A - B
	OpMul                // dst = A * B
	OpDiv                // dst = A / B (B==0 yields 0)
	OpMod                // dst = A % B (B==0 yields 0)
	OpGeom               // dst = geometry constant selected by Geom
	OpJmp                // pc = Target
	OpBr                 // if Cmp(A, B) then pc = Target

	// Device ops. Memory operands (A of every op below except OpCompute)
	// are pool indices; Scope gives the variable's synchronization scope.
	// Atomics return the value observed when the op was serviced at the
	// variable's synchronization point (the L2 bank or the CU-local unit).
	// Waits block until the variable has been observed to satisfy the
	// comparison, returning that value; an acquire repeats its exchange
	// until it returns the unlocked value. How a WG waits between attempts
	// — busy polling, backoff, timeouts, monitor arming, waiting atomics —
	// is the active scheduling policy's choice.
	OpCompute     // Compute(A) cycles; A <= 0 is a no-op
	OpLoad        // dst = Load(pool[A])
	OpStore       // Store(pool[A], B)
	OpAtomicAdd   // dst = AtomicAdd(var(A), B)
	OpAtomicExch  // dst = AtomicExch(var(A), B)
	OpAtomicCAS   // dst = AtomicCAS(var(A), cmp=B, swap=C)
	OpAtomicLoad  // dst = AtomicLoad(var(A))
	OpAtomicStore // AtomicStore(var(A), B)
	OpSyncThreads // intra-WG barrier
	OpAwaitEq     // dst = AwaitEq(var(A), B); Hint selects the backoff form
	OpAwaitGE     // dst = AwaitGE(var(A), B)
	OpAcquireExch // AcquireExch(var(A), locked=B, unlocked=C); Hint selects backoff
	opCount
)

func (k OpKind) String() string {
	names := [...]string{
		"mov", "add", "sub", "mul", "div", "mod", "geom", "jmp", "br",
		"compute", "load", "store",
		"atomic-add", "atomic-exch", "atomic-cas", "atomic-load", "atomic-store",
		"sync-threads", "await-eq", "await-ge", "acquire-exch",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsDevice reports whether the op issues a simulated device operation (as
// opposed to executing purely inside the interpreter).
func (k OpKind) IsDevice() bool { return k >= OpCompute && k < opCount }

// Src is one operand: a register (Reg >= 0) or an immediate (Reg < 0).
type Src struct {
	Reg int16
	Imm int64
}

// R makes a register operand.
func R(i int) Src { return Src{Reg: int16(i)} }

// Imm makes an immediate operand.
func Imm(v int64) Src { return Src{Reg: -1, Imm: v} }

// Op is one instruction. Field use depends on Kind (see the OpKind
// constants); unused fields are zero. Dst < 0 discards a device op's
// returned value.
type Op struct {
	Kind    OpKind
	Dst     int16
	A, B, C Src
	Scope   Scope
	Cmp     Cmp
	Geom    Geom
	Target  int32 // OpJmp/OpBr destination pc; len(Code) means "fall off the end"
	Hint    bool  // software-backoff wait hint (OpAwaitEq, OpAcquireExch)
}

// Program is one kernel body: every WG executes the same code against its
// own register file, branching on geometry constants where WGs diverge.
// A Program is immutable after Validate and shared by all WGs of a launch.
type Program struct {
	NumRegs int
	Pool    []uint64 // word addresses selected by memory-op pool indices
	Code    []Op
}

// maxRegs bounds the register file (and so the per-WG frame footprint).
const maxRegs = 256

// hasDst reports whether the op kind produces a value that must land in a
// register (pure value ops) or may optionally (device ops with returns).
func needsDst(k OpKind) bool {
	switch k {
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpGeom:
		return true
	}
	return false
}

// returnsValue reports whether a device op kind has a value to deliver.
func returnsValue(k OpKind) bool {
	switch k {
	case OpLoad, OpAtomicAdd, OpAtomicExch, OpAtomicCAS, OpAtomicLoad, OpAwaitEq, OpAwaitGE:
		return true
	}
	return false
}

// Validate checks the program's static invariants: register and pool
// indices in range, branch targets within [0, len(Code)], and op kinds,
// comparisons, and geometry selectors in their enums. Dynamic pool indices
// (register-valued memory operands) are range-checked at execution time.
func (p *Program) Validate() error {
	if p.NumRegs < 0 || p.NumRegs > maxRegs {
		return fmt.Errorf("prog: %d registers, want 0..%d", p.NumRegs, maxRegs)
	}
	checkSrc := func(pc int, s Src) error {
		if s.Reg >= 0 && int(s.Reg) >= p.NumRegs {
			return fmt.Errorf("prog: op %d reads r%d, have %d registers", pc, s.Reg, p.NumRegs)
		}
		return nil
	}
	checkPool := func(pc int, s Src) error {
		// Immediate pool indices are fully static; register-valued ones are
		// checked when the access executes.
		if s.Reg < 0 && (s.Imm < 0 || s.Imm >= int64(len(p.Pool))) {
			return fmt.Errorf("prog: op %d addresses pool[%d], pool has %d entries", pc, s.Imm, len(p.Pool))
		}
		return checkSrc(pc, s)
	}
	for pc := range p.Code {
		op := &p.Code[pc]
		if op.Kind >= opCount {
			return fmt.Errorf("prog: op %d has unknown kind %d", pc, op.Kind)
		}
		if needsDst(op.Kind) && (op.Dst < 0 || int(op.Dst) >= p.NumRegs) {
			return fmt.Errorf("prog: op %d (%s) writes r%d, have %d registers", pc, op.Kind, op.Dst, p.NumRegs)
		}
		if !needsDst(op.Kind) && op.Dst >= 0 {
			if !returnsValue(op.Kind) {
				return fmt.Errorf("prog: op %d (%s) names dst r%d but returns nothing", pc, op.Kind, op.Dst)
			}
			if int(op.Dst) >= p.NumRegs {
				return fmt.Errorf("prog: op %d (%s) writes r%d, have %d registers", pc, op.Kind, op.Dst, p.NumRegs)
			}
		}
		switch op.Kind {
		case OpJmp, OpBr:
			if op.Target < 0 || int(op.Target) > len(p.Code) {
				return fmt.Errorf("prog: op %d branches to %d, code has %d ops", pc, op.Target, len(p.Code))
			}
			if op.Kind == OpBr {
				if op.Cmp > GE {
					return fmt.Errorf("prog: op %d has unknown comparison %d", pc, op.Cmp)
				}
				if err := checkSrc(pc, op.A); err != nil {
					return err
				}
				if err := checkSrc(pc, op.B); err != nil {
					return err
				}
			}
		case OpGeom:
			if op.Geom >= geomCount {
				return fmt.Errorf("prog: op %d has unknown geometry selector %d", pc, op.Geom)
			}
		case OpMov:
			if err := checkSrc(pc, op.A); err != nil {
				return err
			}
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			if err := checkSrc(pc, op.A); err != nil {
				return err
			}
			if err := checkSrc(pc, op.B); err != nil {
				return err
			}
		case OpCompute:
			if err := checkSrc(pc, op.A); err != nil {
				return err
			}
		case OpSyncThreads:
			// no operands
		default: // memory ops: A is the pool index
			if err := checkPool(pc, op.A); err != nil {
				return err
			}
			if err := checkSrc(pc, op.B); err != nil {
				return err
			}
			if err := checkSrc(pc, op.C); err != nil {
				return err
			}
			if op.Scope > Local {
				return fmt.Errorf("prog: op %d has unknown scope %d", pc, op.Scope)
			}
		}
	}
	return nil
}

// Ops reports the code length.
func (p *Program) Ops() int { return len(p.Code) }
