package experiments

import (
	"fmt"
	"strings"

	"awgsim/internal/kernels"
	"awgsim/internal/litmus"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// litmusPolicies is the conformance experiment's policy set: the non-IFP
// Baseline and Sleep (documented to fail IFP-only patterns when
// oversubscribed) against the timeout, monitor, and AWG architectures and
// the AWG ablation variants (required to pass every cell).
var litmusPolicies = []string{
	"Baseline", "Sleep", "Timeout", "MonNR-All", "MonNR-One", "MonRS-All", "MonR-All",
	"AWG", "AWG-nostall", "AWG-nopredict", "AWG-nocache",
}

// litmusScale bundles the sweep's size at the configured scale: the
// generator seed is fixed so the experiment is a regression artifact, not
// a dice roll (open-ended hunts live in cmd/awglitmus).
func (o Options) litmusScale() (seed uint64, count int) {
	if o.Quick {
		return 1, 24
	}
	return 1, 192
}

// Litmus is the progress-model conformance experiment: a seeded sweep of
// generated synchronization patterns (chains, rings, DAG handoffs,
// gathers, broadcasts, plus deliberately broken waits) runs across every
// policy and occupancy level, each cell is checked against the four
// progress-model oracles (OBE / HSA / linear occupancy / IFP), and the
// outcomes reduce to the conformance matrix. Any violation beyond the
// documented non-IFP outcomes (Baseline and Sleep failing patterns only
// IFP requires) fails the experiment.
func Litmus(o Options) (*metrics.Table, error) {
	seed, count := o.litmusScale()
	pats := litmus.Generate(seed, count)
	s := litmus.Conformance(pats, litmusPolicies, litmus.Occupancies(), 0, 0)
	t := s.Matrix(fmt.Sprintf(
		"Litmus conformance: policy x occupancy vs progress models (%d patterns, seed %d)", count, seed))
	if un := s.Unexpected(); len(un) > 0 {
		return t, fmt.Errorf("litmus: %d conformance violation(s), first: %s", len(un), un[0].Detail)
	}
	return t, nil
}

// LitmusWorkedExamples renders the README's two worked minimal
// reproducers end-to-end: an expected non-IFP failure shrunk to its
// canonical two-WG handoff (with the diagnosis and the committable test
// the harness renders for it), and the same pattern completing under an
// IFP policy at the same single-slot occupancy.
func LitmusWorkedExamples(o Options) (string, error) {
	var b strings.Builder

	// Example 1: a padded reverse chain wedges Baseline at one resident
	// slot (an IFP-only pattern), and shrinks to the minimal handoff.
	occOne := litmus.Occupancies()[2]
	seedPattern := "litmus:1:c50,e0.1;c80,e1.1,s0.1;e2.1,s1.1;s2.1"
	l, err := litmusDecode(seedPattern)
	if err != nil {
		return "", err
	}
	fail := litmus.ViolationFailFn("Baseline", litmus.IFP, occOne, 0)
	if !fail(l) {
		return "", fmt.Errorf("litmus example: Baseline completed %s at one slot", seedPattern)
	}
	min := litmus.Shrink(l, fail)
	res, err := litmusRun(min, "Baseline", occOne.Cap(min.NumWGs()))
	if err != nil {
		return "", fmt.Errorf("litmus example: %w", err)
	}
	if !res.Deadlocked || res.Diagnosis == nil {
		return "", fmt.Errorf("litmus example: shrunk reproducer did not stall diagnosed")
	}
	fmt.Fprintf(&b, "Worked example 1: IFP-only pattern vs the non-IFP Baseline\n")
	fmt.Fprintf(&b, "  generated: %s\n", seedPattern)
	fmt.Fprintf(&b, "  shrunk:    %s  (WG 0 waits for a flag only the later WG 1 publishes)\n", min.Encode())
	fmt.Fprintf(&b, "  Baseline at 1 resident slot: %s\n", res.Diagnosis.Summary())
	fmt.Fprintf(&b, "  rendered regression test (pins the IFP policies' required behaviour):\n")
	test := litmus.RenderGoTest(min, "LitmusRevChainAWG", "litmus_test", "AWG", 1, litmus.IFP)
	for _, line := range strings.Split(strings.TrimRight(test, "\n"), "\n") {
		fmt.Fprintf(&b, "    %s\n", line)
	}

	// Example 2: the same shrunk pattern under an IFP policy completes at
	// the same occupancy — the paper's claim in two WGs.
	res2, err := litmusRun(min, "AWG", occOne.Cap(min.NumWGs()))
	if err != nil {
		return "", fmt.Errorf("litmus example: %w", err)
	}
	if res2.Deadlocked {
		return "", fmt.Errorf("litmus example: AWG stalled on the shrunk reproducer")
	}
	fmt.Fprintf(&b, "\nWorked example 2: the same pattern under an IFP policy\n")
	fmt.Fprintf(&b, "  AWG at 1 resident slot: completed in %d cycles (waiting WG yields its slot,\n", res2.Cycles)
	fmt.Fprintf(&b, "  the publisher runs, the monitor wakes the waiter)\n")
	return strings.TrimRight(b.String(), "\n"), nil
}

func litmusDecode(name string) (kernels.Litmus, error) { return kernels.DecodeLitmus(name) }

func litmusRun(l kernels.Litmus, policy string, wgCap int) (metrics.Result, error) {
	return sim.Run(litmus.RunConfig(l, policy, wgCap, 0))
}
