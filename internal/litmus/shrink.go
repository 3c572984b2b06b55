package litmus

import (
	"fmt"
	"strings"

	"awgsim/internal/kernels"
	"awgsim/internal/sim"
)

// FailFn reports whether a candidate pattern still exhibits the failure
// being shrunk. Shrink only keeps reductions for which fail returns true,
// so the property — "this policy stalls on it", "the HSA oracle accepts it
// but the run deadlocks", or any abstract predicate — is preserved
// end-to-end.
type FailFn func(l kernels.Litmus) bool

// Shrink greedily reduces l while fail keeps holding: it tries dropping
// whole WGs, then single ops, then compacting the variable space, and
// restarts after every accepted reduction until a fixpoint. The result is
// 1-minimal (no single WG or op can be removed), still valid under the
// grammar, and fail(result) is true; if fail(l) is false, l is returned
// unchanged. Candidates that fail Validate are skipped, so a FailFn may
// assume its argument is well-formed.
func Shrink(l kernels.Litmus, fail FailFn) kernels.Litmus {
	if !fail(l) {
		return l
	}
	cur := l
	for {
		reduced := false
		// Drop a whole WG (only while at least two remain).
		for wg := 0; wg < cur.NumWGs() && cur.NumWGs() > 1; wg++ {
			cand := dropWG(cur, wg)
			if accept(cand, fail) {
				cur, reduced = cand, true
				wg--
			}
		}
		// Drop a single op.
		for wg := 0; wg < cur.NumWGs(); wg++ {
			for i := 0; i < len(cur.Progs[wg]); i++ {
				cand := dropOp(cur, wg, i)
				if accept(cand, fail) {
					cur, reduced = cand, true
					i--
				}
			}
		}
		// Compact variable indices (cosmetic, but it shortens the encoded
		// reproducer and keeps NumVars honest after op drops).
		if cand := compactVars(cur); cand.NumVars() < cur.NumVars() && accept(cand, fail) {
			cur, reduced = cand, true
		}
		if !reduced {
			return cur
		}
	}
}

func accept(cand kernels.Litmus, fail FailFn) bool {
	return cand.Validate() == nil && fail(cand)
}

func dropWG(l kernels.Litmus, wg int) kernels.Litmus {
	progs := make([][]kernels.LitmusOp, 0, l.NumWGs()-1)
	for i, p := range l.Progs {
		if i == wg {
			continue
		}
		progs = append(progs, append([]kernels.LitmusOp(nil), p...))
	}
	return kernels.Litmus{Progs: progs}
}

func dropOp(l kernels.Litmus, wg, op int) kernels.Litmus {
	progs := make([][]kernels.LitmusOp, l.NumWGs())
	for i, p := range l.Progs {
		if i != wg {
			progs[i] = append([]kernels.LitmusOp(nil), p...)
			continue
		}
		progs[i] = append(append([]kernels.LitmusOp(nil), p[:op]...), p[op+1:]...)
	}
	return kernels.Litmus{Progs: progs}
}

// compactVars renumbers variables to close the gaps op-dropping leaves,
// preserving first-use order.
func compactVars(l kernels.Litmus) kernels.Litmus {
	remap := map[int]int{}
	progs := make([][]kernels.LitmusOp, l.NumWGs())
	for i, p := range l.Progs {
		progs[i] = append([]kernels.LitmusOp(nil), p...)
	}
	for _, p := range progs {
		for j := range p {
			if p[j].Kind == kernels.LitmusWork {
				continue
			}
			nv, ok := remap[p[j].Var]
			if !ok {
				nv = len(remap)
				remap[p[j].Var] = nv
			}
			p[j].Var = nv
		}
	}
	return kernels.Litmus{Progs: progs}
}

// Size is the shrinker's metric: WGs plus total ops.
func Size(l kernels.Litmus) int { return l.NumWGs() + l.NumOps() }

// SimFailFn builds the FailFn the conformance hunts shrink with: the
// candidate still fails (stalls or errors) when the policy runs it at the
// given capacity. Every probe simulates, a repeated candidate too: litmus
// runs are short, and the README's worked example repeats 2 of its 12
// runs.
func SimFailFn(policy string, wgCap int, budget uint64) FailFn {
	return func(l kernels.Litmus) bool {
		res, err := sim.Run(RunConfig(l, policy, wgCap, budget))
		return err != nil || res.Deadlocked
	}
}

// ViolationFailFn builds the FailFn for shrinking a conformance violation:
// a candidate counts only if the oracle still demands termination under
// the violated model at the occupancy level's capacity (recomputed as WG
// drops change the pattern size) AND the policy still fails it. Plain
// SimFailFn would happily shrink a violation into a trivially broken
// pattern no model requires terminating; this keeps the reproducer a
// violation all the way down. Like SimFailFn, every probe simulates.
func ViolationFailFn(policy string, model Model, occ Occupancy, budget uint64) FailFn {
	return func(l kernels.Litmus) bool {
		wgCap := occ.Cap(l.NumWGs())
		if !MustTerminate(l, model, wgCap) {
			return false
		}
		res, err := sim.Run(RunConfig(l, policy, wgCap, budget))
		return err != nil || res.Deadlocked
	}
}

// RenderGoTest renders a shrunk reproducer as a committable regression
// test asserting the *required* behaviour: the policy must complete the
// pattern at the given capacity (the conformance claim the original,
// unshrunk case violated). pkg is the target package name; testName must
// be a valid Go identifier suffix.
func RenderGoTest(l kernels.Litmus, testName, pkg, policy string, wgCap int, model Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	b.WriteString("import (\n\t\"testing\"\n\n\t\"awgsim/internal/kernels\"\n\t\"awgsim/internal/litmus\"\n\t\"awgsim/internal/sim\"\n)\n\n")
	fmt.Fprintf(&b, "// Test%s pins a litmus-harness reproducer: the pattern below must\n", testName)
	fmt.Fprintf(&b, "// terminate under the %s progress model at %d resident slot(s), so the\n", model, wgCap)
	fmt.Fprintf(&b, "// %s policy has to complete it. Shrunk from a generated pattern by\n", policy)
	b.WriteString("// litmus.Shrink; see DESIGN.md §9.\n")
	fmt.Fprintf(&b, "func Test%s(t *testing.T) {\n", testName)
	fmt.Fprintf(&b, "\tl, err := kernels.DecodeLitmus(%q)\n", l.Encode())
	b.WriteString("\tif err != nil {\n\t\tt.Fatalf(\"decode: %v\", err)\n\t}\n")
	fmt.Fprintf(&b, "\tres, err := sim.Run(litmus.RunConfig(l, %q, %d, 0))\n", policy, wgCap)
	b.WriteString("\tif err != nil {\n\t\tt.Fatalf(\"run: %v\", err)\n\t}\n")
	b.WriteString("\tif res.Deadlocked {\n")
	fmt.Fprintf(&b, "\t\tt.Fatalf(\"%s stalled on %%s at cap %d: %%s\", res.Benchmark, res.Diagnosis.Summary())\n", policy, wgCap)
	b.WriteString("\t}\n}\n")
	return b.String()
}
