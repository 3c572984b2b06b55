// Package gpu models the GPU execution hierarchy of the paper's baseline
// (Table 1): compute units holding work-group (WG) contexts, a dispatcher
// assigning globally unique WG IDs, and an inline interpreter that runs each
// WG's kernel program (an internal/prog register-machine program) as a
// resumable frame advanced by the event engine.
//
// The package deliberately knows nothing about *how* synchronization waits
// are implemented: kernels express intent (wait until this variable equals
// this value; acquire this test-and-set lock) and a pluggable Policy lowers
// each intent to busy-waiting, backoff, timeouts, monitor arming, or the
// paper's waiting atomics. That split mirrors the paper's observation that
// the same primitive library runs under every architecture in its design
// space.
//
// A run is deterministic: the same configuration, kernel, policy and
// pre-run setup give a bit-identical run, however its driver slices it
// with RunTo. Callers that need to go back in time rebuild the machine
// and re-run it.
package gpu

import (
	"awgsim/internal/mem"
)

// WGID is the globally unique work-group ID the dispatcher assigns; AWG
// uses it throughout the cooperative scheduling process (Section V.B).
type WGID int

// CUID identifies a compute unit. NoCU marks a WG without a resident CU.
type CUID int

// NoCU is the CU assignment of a non-resident WG.
const NoCU CUID = -1

// Scope is a synchronization variable's visibility scope, matching
// HeteroSync's globally (G) and locally (L) scoped variants.
type Scope int

const (
	// Global variables are shared by all WGs and their atomics execute at
	// the L2.
	Global Scope = iota
	// Local variables are shared only by the WGs of one scheduling group
	// (the WGs initially co-resident on a CU); their atomics execute at the
	// CU's local synchronization unit while the WG stays home.
	Local
)

func (s Scope) String() string {
	if s == Local {
		return "local"
	}
	return "global"
}

// Var names a synchronization variable: a word address plus its scope. For
// Local scope, Group is the owning scheduling group (home CU index).
type Var struct {
	Addr  mem.Addr
	Scope Scope
	Group int
}

// GlobalVar builds a globally scoped variable.
func GlobalVar(a mem.Addr) Var { return Var{Addr: a, Scope: Global} }

// LocalVar builds a variable locally scoped to a group.
func LocalVar(a mem.Addr, group int) Var { return Var{Addr: a, Scope: Local, Group: group} }

// Cmp is the comparison a wait condition applies between the observed
// value and the expected operand. Equality is the paper's waiting-atomic
// form; GE supports the monotonic-counter spins of the barrier and ticket
// primitives (a sparse poller must not miss a value that sweeps past its
// target).
type Cmp int

const (
	CmpEQ Cmp = iota
	CmpGE
)

// Test applies the comparison.
func (c Cmp) Test(got, want int64) bool {
	if c == CmpGE {
		return got >= want
	}
	return got == want
}

func (c Cmp) String() string {
	if c == CmpGE {
		return ">="
	}
	return "=="
}

// AtomicOp enumerates the atomic operations the device supports. All of
// them have waiting forms under the MonNR/AWG architectures: the paper
// extends atomics with an expected-value operand (Section IV.D).
type AtomicOp int

const (
	OpAdd AtomicOp = iota
	OpExch
	OpCAS
	OpLoad
	OpStore
)

func (op AtomicOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpExch:
		return "exch"
	case OpCAS:
		return "cas"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	default:
		return "?"
	}
}

// Apply computes the atomic's new value and returned (old) value.
// operand2 is only used by CAS (the swap value; operand is the compare
// value).
func (op AtomicOp) Apply(old, operand, operand2 int64) (newVal, ret int64) {
	switch op {
	case OpAdd:
		return old + operand, old
	case OpExch:
		return operand, old
	case OpCAS:
		if old == operand {
			return operand2, old
		}
		return old, old
	case OpLoad:
		return old, old
	case OpStore:
		return operand, old
	default:
		panic("gpu: unknown atomic op")
	}
}

// IsWrite reports whether the op can modify memory.
func (op AtomicOp) IsWrite() bool { return op != OpLoad }

// WGState is a work-group's scheduling state, the state machine the paper's
// Command Processor firmware tracks: "stalled, context switching out,
// waiting, ready, or context switching in" (Section IV.A), plus the
// bookkeeping states around kernel start and finish.
type WGState int

const (
	// StatePending: not yet dispatched for the first time.
	StatePending WGState = iota
	// StateResident: occupying CU resources; executing or stalled.
	StateResident
	// StateSwitchingOut: context save in flight.
	StateSwitchingOut
	// StateSwitchedOut: context in memory, waiting on its condition.
	StateSwitchedOut
	// StateReady: context in memory, condition met, queued for resources.
	StateReady
	// StateSwitchingIn: context restore in flight.
	StateSwitchingIn
	// StateDone: ran to completion.
	StateDone
)

func (s WGState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateResident:
		return "resident"
	case StateSwitchingOut:
		return "switching-out"
	case StateSwitchedOut:
		return "switched-out"
	case StateReady:
		return "ready"
	case StateSwitchingIn:
		return "switching-in"
	case StateDone:
		return "done"
	default:
		return "?"
	}
}
