package gpu

import (
	"fmt"
	"sync/atomic"

	"awgsim/internal/event"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// Program-IR execution: every WG runs its kernel's prog.Program on a plain
// frame — program counter plus register file — that the machine advances
// directly in the response path. Pure IR ops (register arithmetic, branches,
// geometry reads) execute immediately at zero simulated cost; each device op
// is issued to the timing model, and the engine event that completes it
// writes the result register and advances the frame to the next device op.
// No WG owns a goroutine, so the simulation runs on the caller's goroutine
// alone.

// maxPureOps bounds the pure ops an interpreter slice may execute between
// device operations — the backstop against a program whose register loop
// never issues one (the IR analogue of a zero-delay livelock).
const maxPureOps = 1 << 22

// irFrame is one WG's resumable interpreter state.
type irFrame struct {
	prog *prog.Program
	pc   int
	// dst is the register awaiting the in-flight device response (< 0
	// discards it).
	dst  int16
	regs []int64
	// geom caches the per-WG launch-geometry constants, indexed by
	// prog.Geom, derived from immutable WG identity.
	geom [6]int64
}

// newIRFrame builds w's interpreter frame at program start. A kernel's
// frames and register files sit in two slabs, allocated when its first WG
// starts; a kernel's WG ids are consecutive, so the offset of w's id is
// its index in both.
func newIRFrame(w *WG) *irFrame {
	p, kr := w.spec.IR, w.kr
	if kr.frames == nil {
		kr.frames = make([]irFrame, len(kr.wgs))
		kr.regs = make([]int64, len(kr.wgs)*p.NumRegs)
	}
	i := int(w.id - kr.wgs[0].id)
	f := &kr.frames[i]
	*f = irFrame{prog: p, dst: -1, regs: kr.regs[i*p.NumRegs : (i+1)*p.NumRegs : (i+1)*p.NumRegs]}
	f.geom[prog.GeomID] = int64(w.id)
	f.geom[prog.GeomNumWGs] = int64(w.spec.NumWGs)
	f.geom[prog.GeomWIsPerWG] = int64(w.spec.WIsPerWG)
	f.geom[prog.GeomGroup] = int64(w.home)
	f.geom[prog.GeomGroupSize] = int64(w.grpSz)
	f.geom[prog.GeomIndexInGroup] = int64(w.inGrp)
	return f
}

// val evaluates a source operand.
func (f *irFrame) val(s prog.Src) int64 {
	if s.Reg >= 0 {
		return f.regs[s.Reg]
	}
	return s.Imm
}

// addr resolves a pool-index operand to its word address.
func (f *irFrame) addr(s prog.Src) mem.Addr {
	i := f.val(s)
	if i < 0 || i >= int64(len(f.prog.Pool)) {
		panic(fmt.Sprintf("gpu: IR op at pc %d addresses pool[%d], pool has %d entries", f.pc-1, i, len(f.prog.Pool)))
	}
	return mem.Addr(f.prog.Pool[i])
}

// varOf builds the synchronization variable a memory op addresses; local
// scope binds to the executing WG's scheduling group.
func (f *irFrame) varOf(op *prog.Op) Var {
	if op.Scope == prog.Local {
		return LocalVar(f.addr(op.A), int(f.geom[prog.GeomGroup]))
	}
	return GlobalVar(f.addr(op.A))
}

// runPure executes pure ops (and skips zero-cycle computes, which cost no
// simulated time) until the next device op or the program's end. It returns the device op to issue — with pc
// already advanced past it, so resumption continues at the next op — or nil
// at program end, plus the ops consumed.
func (f *irFrame) runPure() (*prog.Op, uint64) {
	code := f.prog.Code
	n := uint64(0)
	for f.pc < len(code) {
		op := &code[f.pc]
		f.pc++
		n++
		if n > maxPureOps {
			panic(fmt.Sprintf("gpu: IR program executed %d pure ops without a device operation (pc %d)", n, f.pc-1))
		}
		switch op.Kind {
		case prog.OpMov:
			f.regs[op.Dst] = f.val(op.A)
		case prog.OpAdd:
			f.regs[op.Dst] = f.val(op.A) + f.val(op.B)
		case prog.OpSub:
			f.regs[op.Dst] = f.val(op.A) - f.val(op.B)
		case prog.OpMul:
			f.regs[op.Dst] = f.val(op.A) * f.val(op.B)
		case prog.OpDiv:
			if d := f.val(op.B); d != 0 {
				f.regs[op.Dst] = f.val(op.A) / d
			} else {
				f.regs[op.Dst] = 0
			}
		case prog.OpMod:
			if d := f.val(op.B); d != 0 {
				f.regs[op.Dst] = f.val(op.A) % d
			} else {
				f.regs[op.Dst] = 0
			}
		case prog.OpGeom:
			f.regs[op.Dst] = f.geom[op.Geom]
		case prog.OpJmp:
			f.pc = int(op.Target)
		case prog.OpBr:
			if op.Cmp.Test(f.val(op.A), f.val(op.B)) {
				f.pc = int(op.Target)
			}
		case prog.OpCompute:
			if f.val(op.A) > 0 {
				return op, n
			}
		default:
			return op, n
		}
	}
	return nil, n
}

// advanceIR drives w's frame forward: pure ops execute inline at zero
// simulated cost, and the next device op is issued to the timing model (or,
// at program end, the WG finishes). Runs inside the engine event that
// delivered the previous op's result.
func (m *Machine) advanceIR(w *WG) {
	f := w.frame
	op, n := f.runPure()
	// irOps is an interpreter work meter, not simulation state.
	m.irOps += n
	if op == nil {
		m.finish(w)
		return
	}
	f.dst = op.Dst
	switch op.Kind {
	case prog.OpCompute:
		m.runCompute(w, event.Cycle(f.val(op.A)))
	case prog.OpLoad:
		m.issueLoad(w, f.addr(op.A))
	case prog.OpStore:
		m.issueStore(w, f.addr(op.A), f.val(op.B))
	case prog.OpAtomicAdd:
		m.issueAtomic(w, f.varOf(op), OpAdd, f.val(op.B), 0)
	case prog.OpAtomicExch:
		m.issueAtomic(w, f.varOf(op), OpExch, f.val(op.B), 0)
	case prog.OpAtomicCAS:
		m.issueAtomic(w, f.varOf(op), OpCAS, f.val(op.B), f.val(op.C))
	case prog.OpAtomicLoad:
		m.issueAtomic(w, f.varOf(op), OpLoad, 0, 0)
	case prog.OpAtomicStore:
		m.issueAtomic(w, f.varOf(op), OpStore, f.val(op.B), 0)
	case prog.OpSyncThreads:
		m.syncThreads(w)
	case prog.OpAwaitEq:
		m.beginWait(w, WaitOp{Var: f.varOf(op), Op: OpLoad, Want: f.val(op.B), Cmp: CmpEQ, Backoff: op.Hint})
	case prog.OpAwaitGE:
		m.beginWait(w, WaitOp{Var: f.varOf(op), Op: OpLoad, Want: f.val(op.B), Cmp: CmpGE})
	case prog.OpAcquireExch:
		// Test-and-set: exchange B in until the old value equals C.
		m.beginWait(w, WaitOp{Var: f.varOf(op), Op: OpExch, A: f.val(op.B), Want: f.val(op.C), Cmp: CmpEQ, Backoff: op.Hint})
	case prog.OpAcquireCAS:
		// CAS(B -> C) until it succeeds, i.e. returns the expected B.
		m.beginWait(w, WaitOp{Var: f.varOf(op), Op: OpCAS, A: f.val(op.B), B: f.val(op.C), Want: f.val(op.B), Cmp: CmpEQ})
	default:
		panic(fmt.Sprintf("gpu: IR device op %s not dispatched", op.Kind))
	}
}

// irOpsInterpreted is process-wide execution telemetry: how many IR ops the
// interpreter executed. Pure telemetry for awgbench's gpu.ir_ops, never part
// of metrics.Result.
var irOpsInterpreted atomic.Uint64

// ExecStats reports the cumulative count of IR ops interpreted since process
// start. The second result is always 0: it counted WG program goroutines,
// which the machine no longer spawns, and stays only so existing two-value
// callers keep compiling until they drop it.
func ExecStats() (opsInterpreted, goroutinesSpawned uint64) {
	return irOpsInterpreted.Load(), 0
}
