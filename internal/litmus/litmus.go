// Package litmus is the progress-model conformance harness: a seeded
// generator of small inter-WG synchronization patterns (producer/consumer
// chains, rendezvous rings, cross-WG handoff DAGs over waiting atomics),
// abstract must-terminate oracles for the four progress models of Sorensen
// et al. (arXiv:2109.06132) — OBE, HSA, linear occupancy, and the paper's
// IFP claim — and a conformance runner that executes every pattern across
// policies and occupancy levels through the simulator and reduces the
// outcomes to a matrix of which policy satisfies which model.
//
// The pattern grammar (kernels.Litmus) is restricted so abstract execution
// is confluent: signals are monotone (counter increments, one-shot flags),
// waits are monotone conditions (>=, or == on a single-write flag). The
// quiescent state of any set of fairly scheduled WGs is therefore unique,
// which makes the oracles decision procedures rather than model checkers
// over interleavings: a model's adversary only chooses *admission*, and
// memoizing on the admitted set explores every choice exactly once.
//
// A pattern that must terminate under model M at occupancy K but
// deadlocks in the simulator is a conformance violation; the shrinker
// (Shrink) reduces it — dropping WGs, dropping ops, compacting variables,
// re-simulating each candidate — to a minimal reproducer that RenderGoTest
// turns into a committable regression test.
package litmus

import (
	"fmt"

	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/sim"
)

// Model names one of the progress models a scheduler may guarantee,
// ordered weakest to strongest.
type Model int

const (
	// OBE is occupancy-bound execution: once a WG is occupant it is fairly
	// scheduled until it finishes, but admission is adversarial — any
	// pending WG may take a freed slot, in any order.
	OBE Model = iota
	// HSA is the HSA-spec model: the lowest-id unfinished WG is fairly
	// scheduled; no other WG is guaranteed anything.
	HSA
	// LinOcc is linear occupancy-bound execution: WGs are admitted in ID
	// order as slots free, and occupants are fairly scheduled (OBE with
	// in-order admission — what a real in-order dispatcher provides).
	LinOcc
	// IFP is the paper's claim: every WG is fairly scheduled regardless of
	// residency, because waiting occupants eventually yield their slots.
	IFP
)

// Models lists all models in presentation (weakest-first) order.
func Models() []Model { return []Model{OBE, HSA, LinOcc, IFP} }

func (m Model) String() string {
	switch m {
	case OBE:
		return "OBE"
	case HSA:
		return "HSA"
	case LinOcc:
		return "LinOcc"
	case IFP:
		return "IFP"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// maxOracleWGs bounds the OBE oracle's admission-set search (2^n masks).
const maxOracleWGs = 16

// MustTerminate reports whether pattern l is guaranteed to terminate under
// every scheduler satisfying model m with occupancy cap wgCap (resident-WG
// slots). For HSA and IFP the cap is irrelevant (those models speak about
// fair scheduling regardless of residency) and is ignored.
func MustTerminate(l kernels.Litmus, m Model, wgCap int) bool {
	switch m {
	case IFP:
		_, complete := l.FairFinal()
		return complete
	case HSA:
		return mustHSA(l)
	case LinOcc:
		return mustLinOcc(l, wgCap)
	case OBE:
		return mustOBE(l, wgCap)
	}
	return false
}

// mustHSA decides termination under the HSA adversary, which runs only the
// lowest-id unfinished WG: the pattern must complete executed serially in
// ID order.
func mustHSA(l kernels.Litmus) bool {
	vals := make([]int64, l.NumVars())
	for _, prog := range l.Progs {
		for _, op := range prog {
			if !op.Step(vals) {
				return false
			}
		}
	}
	return true
}

// mustLinOcc decides termination under linear occupancy at cap K: the
// resident set is always the lowest-id unfinished WGs within the admitted
// prefix, the prefix grows by one for every finished WG, and residents run
// fairly to quiescence between admissions.
func mustLinOcc(l kernels.Litmus, wgCap int) bool {
	n := l.NumWGs()
	if wgCap >= n {
		_, complete := l.FairFinal()
		return complete
	}
	if wgCap < 1 {
		return false
	}
	pc := make([]int, n)
	vals := make([]int64, l.NumVars())
	// Only admitted WGs can finish: an empty (or quickly completing)
	// program past the prefix frees no slot until a slot admits it.
	finished := func(limit int) int {
		f := 0
		for wg := 0; wg < limit; wg++ {
			if pc[wg] == len(l.Progs[wg]) {
				f++
			}
		}
		return f
	}
	admitted := wgCap
	for {
		limit := admitted
		l.Quiesce(func(wg int) bool { return wg < limit }, pc, vals)
		f := finished(limit)
		if f == n {
			return true
		}
		next := min(n, wgCap+f)
		if next == admitted {
			return false // quiescent, unfinished, no slot frees: stuck
		}
		admitted = next
	}
}

// mustOBE decides termination under OBE at cap K by exhausting the
// admission adversary: from each quiescent admitted set (memoized — the
// grammar's confluence makes the quiescent state a function of the set),
// every choice of next admission must lead to termination. Occupants never
// leave until they finish, so a state with every slot held by a blocked WG
// is stuck.
func mustOBE(l kernels.Litmus, wgCap int) bool {
	n := l.NumWGs()
	if n > maxOracleWGs {
		return false
	}
	if wgCap >= n {
		_, complete := l.FairFinal()
		return complete
	}
	if wgCap < 1 {
		return false
	}
	// memo[mask] is 0 until the mask is decided, then 1 (terminates) or
	// -1 (stuck). A mask reads pc and vals only before it recurses, so one
	// pair serves the whole search.
	memo := make([]int8, 1<<n)
	pc := make([]int, n)
	vals := make([]int64, l.NumVars())
	var ok func(mask uint32) bool
	ok = func(mask uint32) bool {
		if v := memo[mask]; v != 0 {
			return v > 0
		}
		clear(pc)
		clear(vals)
		l.Quiesce(func(wg int) bool { return mask&(1<<wg) != 0 }, pc, vals)
		blocked := 0
		for wg, prog := range l.Progs {
			if mask&(1<<wg) != 0 && pc[wg] < len(prog) {
				blocked++
			}
		}
		allIn := mask == (1<<n)-1
		res := true
		switch {
		case allIn:
			res = blocked == 0
		case blocked >= wgCap:
			// Every slot is held by a blocked occupant and WGs remain
			// pending: no admission can happen, no occupant can advance.
			res = false
		default:
			for wg := 0; wg < n; wg++ {
				if mask&(1<<wg) == 0 && !ok(mask|1<<wg) {
					res = false
					break
				}
			}
		}
		memo[mask] = -1
		if res {
			memo[mask] = 1
		}
		return res
	}
	return ok(0)
}

// Occupancy is one resident-capacity level of the conformance sweep.
type Occupancy struct {
	Name string
	// Cap maps the pattern's WG count to the machine's resident-WG slots.
	Cap func(numWGs int) int
}

// Occupancies returns the sweep's three levels: full residency (every WG
// fits — any fair occupant scheduler terminates every fair-terminating
// pattern), half (ceil(n/2) slots — the oversubscribed regime the paper
// targets), and one (maximal pressure: a single slot, where only policies
// that evict waiting WGs can finish anything that waits on a later WG).
func Occupancies() []Occupancy {
	return []Occupancy{
		{Name: "full", Cap: func(n int) int { return n }},
		{Name: "half", Cap: func(n int) int { return (n + 1) / 2 }},
		{Name: "one", Cap: func(n int) int { return 1 }},
	}
}

// RunConfig builds the declarative simulator config for one pattern at one
// occupancy: a single-CU machine with wgCap resident slots, a short
// progress window (patterns are tiny, so a stall is detected quickly), and
// a cycle budget that terminates livelocked runs diagnosed. The benchmark
// name is the pattern's canonical encoding, so the config is declarative
// and equal patterns build equal configs.
func RunConfig(l kernels.Litmus, policy string, wgCap int, budget uint64) sim.Config {
	return runConfig(l.Encode(), l.NumWGs(), policy, wgCap, budget)
}

// runConfig is RunConfig for a pattern already encoded as name, with
// numWGs programs.
func runConfig(name string, numWGs int, policy string, wgCap int, budget uint64) sim.Config {
	g := gpu.DefaultConfig()
	g.NumCUs = 1
	g.MaxWGsPerCU = wgCap
	g.ProgressWindow = 60_000
	if budget == 0 {
		budget = 2_000_000
	}
	return sim.Config{
		Benchmark:   name,
		Policy:      policy,
		GPU:         g,
		Params:      kernels.Params{NumWGs: numWGs, Groups: 1, WIsPerWG: 1, Iters: 1},
		CycleBudget: budget,
	}
}
