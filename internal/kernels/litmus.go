package kernels

// Litmus patterns: tiny declarative inter-WG synchronization kernels in the
// style of Sorensen et al., "Specifying and Testing GPU Workgroup Progress
// Models" (arXiv:2109.06132). A pattern is a per-WG straight-line program
// over shared synchronization variables — signal ops (monotone counter
// increments, one-shot flag writes) and waiting ops (the policy-lowered
// AwaitGE/AwaitEq the whole benchmark suite uses) — small enough that its
// termination behaviour under a formal progress model (OBE, HSA, linear
// occupancy, IFP) is decidable by the abstract oracles in internal/litmus.
//
// A pattern is pure data and round-trips through a canonical string
// encoding that doubles as its benchmark name ("litmus:1:..."): a litmus
// sim.Config is therefore fully declarative, and litmus.Conformance keys
// its distinct runs on the encoded name.
//
// The op discipline is deliberately restricted so abstract execution is
// confluent (the property the oracles and Verify rely on): every variable
// is either a counter — signalled only by Add, waited on only by WaitGE —
// or a flag — written by exactly one Set in the whole pattern. Condition
// satisfaction is then monotone in time (once observable, forever
// observable), so the final memory of a completed run, and whether a given
// scheduler class can get stuck, do not depend on interleaving.

import (
	"fmt"
	"strconv"
	"strings"

	"awgsim/internal/mem"
)

// LitmusPrefix starts every encoded litmus pattern name; Get dispatches
// names carrying it to the litmus builder instead of the registry.
const LitmusPrefix = "litmus:1:"

// litmusMaxVars bounds the variable index space (and so the encoded name
// and the memory footprint of a pattern).
const litmusMaxVars = 256

// LitmusOpKind enumerates the pattern grammar.
type LitmusOpKind uint8

const (
	// LitmusAdd atomically increments a counter variable by one — the
	// monotone signal every barrier/ticket shape is built from.
	LitmusAdd LitmusOpKind = iota
	// LitmusSet writes Val to a flag variable with an atomic exchange — a
	// one-shot handoff token. A pattern may set each flag at most once.
	LitmusSet
	// LitmusWaitGE blocks until the variable has been observed >= Val
	// (policy-lowered AwaitGE).
	LitmusWaitGE
	// LitmusWaitEq blocks until the variable has been observed == Val
	// (policy-lowered AwaitEq); only valid on flag variables, whose single
	// write makes the condition monotone.
	LitmusWaitEq
	// LitmusWork advances the WG by Val cycles of pure computation,
	// skewing arrival times the way real rounds do.
	LitmusWork
)

// LitmusOp is one step of a WG's program. Var indexes the pattern's shared
// variable space (unused by LitmusWork); Val is the signal value, wait
// target, or work amount depending on Kind (unused by LitmusAdd).
type LitmusOp struct {
	Kind LitmusOpKind
	Var  int
	Val  int64
}

// Litmus is one pattern: program i runs as WG i.
type Litmus struct {
	Progs [][]LitmusOp
}

// NumWGs reports the launch width (one WG per program).
func (l Litmus) NumWGs() int { return len(l.Progs) }

// NumVars reports the shared variable count (max index + 1).
func (l Litmus) NumVars() int {
	n := 0
	for _, prog := range l.Progs {
		for _, op := range prog {
			if op.Kind != LitmusWork && op.Var >= n {
				n = op.Var + 1
			}
		}
	}
	return n
}

// NumOps reports the total op count across programs — the shrinker's size
// metric.
func (l Litmus) NumOps() int {
	n := 0
	for _, prog := range l.Progs {
		n += len(prog)
	}
	return n
}

// Validate checks the pattern against the grammar's confluence discipline:
// in-range variable indices, positive wait targets and work amounts, and
// the counter/flag split — a variable signalled by Add is never Set, a
// flag is Set at most once (with a nonzero value), and WaitEq only targets
// flags.
func (l Litmus) Validate() error {
	if len(l.Progs) == 0 {
		return fmt.Errorf("kernels: litmus pattern with no WGs")
	}
	const (
		counter = 1
		flag    = 2
	)
	var role [litmusMaxVars]uint8
	var set [litmusMaxVars]bool
	classify := func(v int, want uint8) error {
		if role[v] == 0 {
			role[v] = want
			return nil
		}
		if role[v] != want {
			return fmt.Errorf("var %d used both as counter and flag", v)
		}
		return nil
	}
	for wg, prog := range l.Progs {
		for i, op := range prog {
			if op.Kind != LitmusWork && (op.Var < 0 || op.Var >= litmusMaxVars) {
				return fmt.Errorf("kernels: litmus WG %d op %d: var %d out of range [0,%d)", wg, i, op.Var, litmusMaxVars)
			}
			var err error
			switch op.Kind {
			case LitmusAdd:
				err = classify(op.Var, counter)
			case LitmusSet:
				if op.Val <= 0 {
					return fmt.Errorf("kernels: litmus WG %d op %d: set value %d, want > 0", wg, i, op.Val)
				}
				err = classify(op.Var, flag)
				if set[op.Var] {
					return fmt.Errorf("kernels: litmus WG %d op %d: flag %d set more than once", wg, i, op.Var)
				}
				set[op.Var] = true
			case LitmusWaitGE:
				if op.Val <= 0 {
					return fmt.Errorf("kernels: litmus WG %d op %d: wait target %d, want > 0", wg, i, op.Val)
				}
			case LitmusWaitEq:
				if op.Val <= 0 {
					return fmt.Errorf("kernels: litmus WG %d op %d: wait target %d, want > 0", wg, i, op.Val)
				}
				err = classify(op.Var, flag)
			case LitmusWork:
				if op.Val <= 0 {
					return fmt.Errorf("kernels: litmus WG %d op %d: work %d cycles, want > 0", wg, i, op.Val)
				}
			default:
				return fmt.Errorf("kernels: litmus WG %d op %d: unknown kind %d", wg, i, op.Kind)
			}
			if err != nil {
				return fmt.Errorf("kernels: litmus WG %d op %d: %w", wg, i, err)
			}
		}
	}
	// WaitEq targets must be flags even when the variable is otherwise
	// untouched (a wait on a never-written variable is a deliberate
	// "broken" pattern, not a grammar error), and waits on counters must
	// use GE; the classify calls above enforce the Set/Add split, this
	// second pass pins WaitEq-on-counter.
	for wg, prog := range l.Progs {
		for i, op := range prog {
			if op.Kind == LitmusWaitEq && role[op.Var] == counter {
				return fmt.Errorf("kernels: litmus WG %d op %d: eq-wait on counter var %d (use ge)", wg, i, op.Var)
			}
		}
	}
	return nil
}

// Encode renders the pattern as its canonical benchmark name: programs
// joined by ';', ops by ',', with op tokens a<var>, s<var>.<val>,
// g<var>.<val>, e<var>.<val>, c<cycles>. DecodeLitmus(Encode()) round-trips
// exactly, and equal patterns encode identically — the property that lets
// a conformance sweep key its distinct runs on the name.
func (l Litmus) Encode() string {
	return string(l.appendName(make([]byte, 0, len(LitmusPrefix)+8*l.NumOps())))
}

// appendName appends the pattern's canonical name to b.
func (l Litmus) appendName(b []byte) []byte {
	b = append(b, LitmusPrefix...)
	for wi, prog := range l.Progs {
		if wi > 0 {
			b = append(b, ';')
		}
		for i, op := range prog {
			if i > 0 {
				b = append(b, ',')
			}
			switch op.Kind {
			case LitmusAdd:
				b = strconv.AppendInt(append(b, 'a'), int64(op.Var), 10)
			case LitmusSet:
				b = appendVarVal(b, 's', op)
			case LitmusWaitGE:
				b = appendVarVal(b, 'g', op)
			case LitmusWaitEq:
				b = appendVarVal(b, 'e', op)
			case LitmusWork:
				b = strconv.AppendInt(append(b, 'c'), op.Val, 10)
			}
		}
	}
	return b
}

// appendVarVal appends op's <tag><var>.<val> token.
func appendVarVal(b []byte, tag byte, op LitmusOp) []byte {
	b = strconv.AppendInt(append(b, tag), int64(op.Var), 10)
	return strconv.AppendInt(append(b, '.'), op.Val, 10)
}

// Stack scratch for DecodeLitmus: patterns up to these sizes decode with
// two allocations, the op array and the program table; larger ones spill
// the scratch to the heap. The generator's patterns stay well inside.
const (
	litmusScratchOps  = 64
	litmusScratchWGs  = 16
	litmusScratchName = 256
)

// DecodeLitmus parses an encoded litmus benchmark name. The encoding must
// be canonical (DecodeLitmus(name).Encode() == name) and the decoded
// pattern valid; errors carry the offending token. One walk over the name
// collects the ops and each program's end in stack scratch; the pattern
// then takes a single op array that its programs slice.
func DecodeLitmus(name string) (Litmus, error) {
	body, ok := strings.CutPrefix(name, LitmusPrefix)
	if !ok {
		return Litmus{}, fmt.Errorf("kernels: %q is not a litmus pattern name", name)
	}
	var opBuf [litmusScratchOps]LitmusOp
	var endBuf [litmusScratchWGs]int
	ops, ends := opBuf[:0], endBuf[:0]
	for wi := 0; ; wi++ {
		progStr, rest, more := strings.Cut(body, ";")
		for next := progStr != ""; next; {
			var tok string
			tok, progStr, next = strings.Cut(progStr, ",")
			op, err := decodeLitmusOp(tok)
			if err != nil {
				return Litmus{}, fmt.Errorf("kernels: litmus WG %d: %w", wi, err)
			}
			ops = append(ops, op)
		}
		ends = append(ends, len(ops))
		if !more {
			break
		}
		body = rest
	}
	all := make([]LitmusOp, len(ops))
	copy(all, ops)
	l := Litmus{Progs: make([][]LitmusOp, len(ends))}
	start := 0
	for wi, end := range ends {
		if end > start {
			l.Progs[wi] = all[start:end:end]
		}
		start = end
	}
	if err := l.Validate(); err != nil {
		return Litmus{}, err
	}
	var nameBuf [litmusScratchName]byte
	if string(l.appendName(nameBuf[:0])) != name {
		return Litmus{}, fmt.Errorf("kernels: non-canonical litmus name %q", name)
	}
	return l, nil
}

func decodeLitmusOp(tok string) (LitmusOp, error) {
	if tok == "" {
		return LitmusOp{}, fmt.Errorf("empty op token")
	}
	kind := tok[0]
	rest := tok[1:]
	parseInt := func(s string) (int64, error) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("op token %q: %w", tok, err)
		}
		return n, nil
	}
	switch kind {
	case 'a':
		v, err := parseInt(rest)
		if err != nil {
			return LitmusOp{}, err
		}
		return LitmusOp{Kind: LitmusAdd, Var: int(v)}, nil
	case 'c':
		n, err := parseInt(rest)
		if err != nil {
			return LitmusOp{}, err
		}
		return LitmusOp{Kind: LitmusWork, Val: n}, nil
	case 's', 'g', 'e':
		varStr, valStr, ok := strings.Cut(rest, ".")
		if !ok {
			return LitmusOp{}, fmt.Errorf("op token %q: missing value", tok)
		}
		v, err := parseInt(varStr)
		if err != nil {
			return LitmusOp{}, err
		}
		n, err := parseInt(valStr)
		if err != nil {
			return LitmusOp{}, err
		}
		k := LitmusSet
		switch kind {
		case 'g':
			k = LitmusWaitGE
		case 'e':
			k = LitmusWaitEq
		}
		return LitmusOp{Kind: k, Var: int(v), Val: n}, nil
	default:
		return LitmusOp{}, fmt.Errorf("op token %q: unknown kind %q", tok, kind)
	}
}

// FairFinal abstractly executes the pattern under fair scheduling of every
// WG at once — the IFP idealization, no occupancy limit — and reports the
// final variable values and whether all WGs complete. By the grammar's
// confluence discipline the result is schedule-independent, so it is both
// the IFP termination oracle and the expected memory Verify checks on a
// completed run.
func (l Litmus) FairFinal() (vals []int64, complete bool) {
	vals = make([]int64, l.NumVars())
	pc := make([]int, len(l.Progs))
	l.Quiesce(func(int) bool { return true }, pc, vals)
	complete = true
	for wg, prog := range l.Progs {
		if pc[wg] < len(prog) {
			complete = false
		}
	}
	return vals, complete
}

// Quiesce runs every admitted WG fairly until none can advance, mutating
// pc (each WG's next op) and vals in place. The grammar's confluence makes
// the result independent of iteration order, so the quiescent state is a
// function of the admitted set — what the progress-model oracles in
// internal/litmus memoize on.
func (l Litmus) Quiesce(admitted func(wg int) bool, pc []int, vals []int64) {
	for {
		progressed := false
		for wg, prog := range l.Progs {
			if !admitted(wg) {
				continue
			}
			for pc[wg] < len(prog) && prog[pc[wg]].Step(vals) {
				pc[wg]++
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// Step applies op to the abstract memory, reporting false when the op is a
// wait whose condition is not yet satisfied.
func (op LitmusOp) Step(vals []int64) bool {
	switch op.Kind {
	case LitmusAdd:
		vals[op.Var]++
	case LitmusSet:
		vals[op.Var] = op.Val
	case LitmusWaitGE:
		return vals[op.Var] >= op.Val
	case LitmusWaitEq:
		return vals[op.Var] == op.Val
	case LitmusWork:
		// Pure computation: no abstract effect.
	}
	return true
}

// litmusBench builds the runnable benchmark for a pattern DecodeLitmus has
// validated from its canonical name: one WG per program, every variable a
// line-separated global word, and Verify comparing the final memory
// against the pattern's confluent fair-execution values — which catches a
// policy that "completes" by corrupting or skipping synchronization.
func litmusBench(l Litmus, name string, p Params) (*Benchmark, error) {
	if p.NumWGs != l.NumWGs() {
		return nil, fmt.Errorf("kernels: litmus pattern has %d WGs, launch params ask %d", l.NumWGs(), p.NumWGs)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	alloc := NewAddrAlloc(0x80000)
	vars := alloc.Words(max(l.NumVars(), 1))
	finals, complete := l.FairFinal()

	spec := baseSpec(p, name, 8, 0)
	spec.IR = litmusIR(l, vars)
	return &Benchmark{
		Spec:   spec,
		Params: p,
		Verify: func(read func(mem.Addr) int64) error {
			if !complete {
				return fmt.Errorf("litmus: pattern cannot complete under fair scheduling, yet the run completed")
			}
			for i, want := range finals {
				if got := read(vars[i]); got != want {
					return fmt.Errorf("litmus: var %d = %d, want %d", i, got, want)
				}
			}
			return nil
		},
	}, nil
}
