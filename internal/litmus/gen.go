package litmus

import (
	"fmt"

	"awgsim/internal/hashutil"
	"awgsim/internal/kernels"
)

// Family names one generator shape. Every family except FamBroken
// constructs patterns that complete under fair scheduling (they are
// IFP-must by construction); where they sit below IFP — HSA-must,
// LinOcc-must at some capacity, OBE-must — is what the oracles decide and
// the conformance matrix tests.
type Family int

const (
	// FamChain is a forward producer/consumer chain: WG i publishes flag i
	// after consuming flag i-1. Signals flow in admission order, so even a
	// serial in-order scheduler (the HSA adversary) completes it.
	FamChain Family = iota
	// FamRevChain is the chain reversed: WG n-1 publishes first and WG 0
	// consumes last, so signals flow *against* admission order — the
	// minimal shape that separates IFP from every occupancy-bound model.
	FamRevChain
	// FamRing is a rendezvous ring: each WG signals its own counter then
	// awaits its successor's. Completes in-order at capacity >= 2 (the
	// prefix always contains a satisfied waiter) but an adversarial
	// admission can wedge it, splitting LinOcc from OBE.
	FamRing
	// FamRing2 is the ring unrolled for two rounds, giving the waits
	// history (targets > 1) and doubling the chances a wake-up policy
	// loses a notification between rounds.
	FamRing2
	// FamDAG is a random handoff DAG built append-only: every wait targets
	// a signal count already appended, so the whole pattern is fair-
	// terminating by construction while the dependency shape is arbitrary.
	FamDAG
	// FamGather is an all-to-all rendezvous on one counter: n adds, then
	// everyone awaits the full count — the centralized-barrier shape.
	FamGather
	// FamScatter is one publisher and n-1 eq-waiters on a single flag —
	// the broadcast shape that stresses wake-one resume policies.
	FamScatter
	// FamBroken appends a wait on a never-written flag to an otherwise
	// fair-terminating pattern: no model must terminate it, and every
	// policy must deadlock *diagnosed* (and certainly must not "complete"
	// by corrupting the wait).
	FamBroken
)

func (f Family) String() string {
	switch f {
	case FamChain:
		return "chain"
	case FamRevChain:
		return "revchain"
	case FamRing:
		return "ring"
	case FamRing2:
		return "ring2"
	case FamDAG:
		return "dag"
	case FamGather:
		return "gather"
	case FamScatter:
		return "scatter"
	case FamBroken:
		return "broken"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// families in generation rotation order. Broken appears once per rotation,
// so roughly one pattern in eight exercises the deadlock-diagnosis path.
var families = []Family{
	FamChain, FamRevChain, FamRing, FamGather,
	FamDAG, FamScatter, FamRing2, FamBroken,
}

// Generate emits count patterns addressed by seed, deterministically:
// equal (seed, count) always yields the same patterns, and the i-th
// pattern does not depend on count. Families rotate; WG counts, work
// skew, and DAG shapes draw from the seeded stream.
func Generate(seed uint64, count int) []kernels.Litmus {
	state := seed
	out := make([]kernels.Litmus, 0, count)
	for i := 0; i < count; i++ {
		fam := families[i%len(families)]
		n := 2 + int(hashutil.SplitMix64(&state)%5) // 2..6 WGs
		var l kernels.Litmus
		switch fam {
		case FamChain:
			l = genChain(n, &state, false)
		case FamRevChain:
			l = genChain(n, &state, true)
		case FamRing:
			l = genRing(n, &state, 1)
		case FamRing2:
			l = genRing(n, &state, 2)
		case FamDAG:
			l = genDAG(n, &state)
		case FamGather:
			l = genGather(n, &state)
		case FamScatter:
			l = genScatter(n, &state)
		case FamBroken:
			l = breakPattern(genDAG(n, &state), &state)
		}
		if err := l.Validate(); err != nil {
			// A generator family violating its own grammar is a bug, not
			// an input condition.
			panic(fmt.Sprintf("litmus: generated invalid %s pattern: %v", fam, err))
		}
		out = append(out, l)
	}
	return out
}

// maybeWork prepends a small compute op with probability 1/2, skewing
// arrival times the way real rounds do.
func maybeWork(state *uint64) []kernels.LitmusOp {
	if hashutil.SplitMix64(state)%2 == 0 {
		return []kernels.LitmusOp{{Kind: kernels.LitmusWork, Val: int64(20 + hashutil.SplitMix64(state)%180)}}
	}
	return nil
}

// genChain builds the (possibly reversed) producer/consumer chain over
// one-shot flags.
func genChain(n int, state *uint64, reversed bool) kernels.Litmus {
	progs := make([][]kernels.LitmusOp, n)
	for i := 0; i < n; i++ {
		prog := maybeWork(state)
		// Forward: WG i consumes flag i-1 and publishes flag i.
		// Reversed: WG i consumes flag i and publishes flag i-1, so the
		// publisher of each flag has a *higher* id than its consumer.
		if reversed {
			if i < n-1 {
				prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusWaitEq, Var: i, Val: 1})
			}
			if i > 0 {
				prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusSet, Var: i - 1, Val: 1})
			}
		} else {
			if i > 0 {
				prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusWaitEq, Var: i - 1, Val: 1})
			}
			if i < n-1 {
				prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusSet, Var: i, Val: 1})
			}
		}
		progs[i] = prog
	}
	return kernels.Litmus{Progs: progs}
}

// genRing builds the rendezvous ring over per-WG counters, unrolled for
// the given number of rounds: in round r, WG i bumps counter i then awaits
// counter (i+1) mod n reaching r.
func genRing(n int, state *uint64, rounds int) kernels.Litmus {
	progs := make([][]kernels.LitmusOp, n)
	for i := 0; i < n; i++ {
		prog := maybeWork(state)
		for r := 1; r <= rounds; r++ {
			prog = append(prog,
				kernels.LitmusOp{Kind: kernels.LitmusAdd, Var: i},
				kernels.LitmusOp{Kind: kernels.LitmusWaitGE, Var: (i + 1) % n, Val: int64(r)})
		}
		progs[i] = prog
	}
	return kernels.Litmus{Progs: progs}
}

// genGather builds the all-to-all rendezvous: everyone bumps counter 0,
// everyone awaits the full count.
func genGather(n int, state *uint64) kernels.Litmus {
	progs := make([][]kernels.LitmusOp, n)
	for i := 0; i < n; i++ {
		progs[i] = append(maybeWork(state),
			kernels.LitmusOp{Kind: kernels.LitmusAdd, Var: 0},
			kernels.LitmusOp{Kind: kernels.LitmusWaitGE, Var: 0, Val: int64(n)})
	}
	return kernels.Litmus{Progs: progs}
}

// genScatter builds the broadcast: a seeded publisher sets the flag, every
// other WG eq-waits on it.
func genScatter(n int, state *uint64) kernels.Litmus {
	pub := int(hashutil.SplitMix64(state) % uint64(n))
	progs := make([][]kernels.LitmusOp, n)
	for i := 0; i < n; i++ {
		prog := maybeWork(state)
		if i == pub {
			prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusSet, Var: 0, Val: 1})
		} else {
			prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusWaitEq, Var: 0, Val: 1})
		}
		progs[i] = prog
	}
	return kernels.Litmus{Progs: progs}
}

// genDAG builds a random handoff DAG over counters, append-only: ops are
// appended to randomly chosen WG programs, and a wait is only ever
// appended with a target no greater than the adds already appended to its
// variable. Every wait's producers therefore precede it in append order,
// which makes the pattern terminate under fair scheduling by induction on
// that order — while the WG-to-WG dependency shape is arbitrary.
func genDAG(n int, state *uint64) kernels.Litmus {
	progs := make([][]kernels.LitmusOp, n)
	nvars := 1 + int(hashutil.SplitMix64(state)%uint64(n))
	adds := make([]int64, nvars)
	steps := n * (2 + int(hashutil.SplitMix64(state)%3))
	for s := 0; s < steps; s++ {
		wg := int(hashutil.SplitMix64(state) % uint64(n))
		v := int(hashutil.SplitMix64(state) % uint64(nvars))
		switch hashutil.SplitMix64(state) % 4 {
		case 0, 1: // signal
			progs[wg] = append(progs[wg], kernels.LitmusOp{Kind: kernels.LitmusAdd, Var: v})
			adds[v]++
		case 2: // handoff wait on anything already published
			if adds[v] > 0 {
				target := 1 + int64(hashutil.SplitMix64(state)%uint64(adds[v]))
				progs[wg] = append(progs[wg], kernels.LitmusOp{Kind: kernels.LitmusWaitGE, Var: v, Val: target})
			} else {
				progs[wg] = append(progs[wg], kernels.LitmusOp{Kind: kernels.LitmusAdd, Var: v})
				adds[v]++
			}
		default: // work
			progs[wg] = append(progs[wg], kernels.LitmusOp{Kind: kernels.LitmusWork, Val: int64(20 + hashutil.SplitMix64(state)%120)})
		}
	}
	// Guarantee at least one cross-WG edge so the pattern is not vacuous:
	// WG 0 bumps, the last WG awaits it.
	progs[0] = append([]kernels.LitmusOp{{Kind: kernels.LitmusAdd, Var: 0}}, progs[0]...)
	adds[0]++
	progs[n-1] = append(progs[n-1], kernels.LitmusOp{Kind: kernels.LitmusWaitGE, Var: 0, Val: 1})
	return kernels.Litmus{Progs: progs}
}

// breakPattern appends an eq-wait on a fresh, never-written flag to a
// seeded WG: the result cannot terminate under any scheduler, fair or not.
func breakPattern(l kernels.Litmus, state *uint64) kernels.Litmus {
	wg := int(hashutil.SplitMix64(state) % uint64(l.NumWGs()))
	dead := l.NumVars()
	l.Progs[wg] = append(l.Progs[wg], kernels.LitmusOp{Kind: kernels.LitmusWaitEq, Var: dead, Val: 1})
	return l
}
