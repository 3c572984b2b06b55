// Command awglitmus runs open-ended litmus hunts for progress-model
// conformance bugs: generate a seeded batch of synchronization patterns,
// run every pattern x policy x occupancy cell through the simulator, check
// each against the OBE / HSA / linear-occupancy / IFP oracles, and shrink
// every unexpected violation to a minimal reproducer rendered as a
// committable Go test.
//
// Usage:
//
//	go run ./cmd/awglitmus [-seed 1] [-count 256] [-policies all]
//	                       [-occ full,half,one] [-budget 2000000]
//	                       [-workers 0] [-show-expected] [-no-shrink]
//
// The golden-pinned regression sweep lives in `awgexp -exp litmus`; this
// tool is for hunting with fresh seeds at scale. Exit status is 1 when any
// unexpected violation is found, 0 otherwise (expected non-IFP outcomes —
// Baseline/Sleep failing patterns only IFP requires — do not fail a hunt).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"awgsim/internal/litmus"
	"awgsim/internal/sim"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed (splitmix64 stream address)")
	count := flag.Int("count", 256, "patterns to generate")
	policiesFlag := flag.String("policies", "all", "comma-separated policy list, or 'all'")
	occFlag := flag.String("occ", "full,half,one", "comma-separated occupancy levels")
	budget := flag.Uint64("budget", 0, "per-run cycle budget (0 = harness default)")
	workers := flag.Int("workers", 0, "parallel sim workers (0 = GOMAXPROCS)")
	showExpected := flag.Bool("show-expected", false, "also list expected non-IFP outcomes")
	noShrink := flag.Bool("no-shrink", false, "skip shrinking unexpected violations")
	flag.Parse()

	policies := sim.Policies()
	if *policiesFlag != "all" {
		policies = strings.Split(*policiesFlag, ",")
		for _, p := range policies {
			if _, err := sim.NewPolicy(p); err != nil {
				fmt.Fprintf(os.Stderr, "awglitmus: %v\n", err)
				os.Exit(2)
			}
		}
	}
	var occs []litmus.Occupancy
	for _, name := range strings.Split(*occFlag, ",") {
		found := false
		for _, o := range litmus.Occupancies() {
			if o.Name == name {
				occs = append(occs, o)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "awglitmus: unknown occupancy %q (have full, half, one)\n", name)
			os.Exit(2)
		}
	}

	pats := litmus.Generate(*seed, *count)
	fmt.Printf("awglitmus: hunting with %d patterns (seed %d), %d policies, %d occupancy levels\n",
		len(pats), *seed, len(policies), len(occs))
	s := litmus.Conformance(pats, policies, occs, *budget, *workers)
	fmt.Println(s.Matrix(fmt.Sprintf("Litmus hunt: seed %d, %d patterns", *seed, *count)).String())

	unexpected := s.Unexpected()
	expected := len(s.Violations) - len(unexpected)
	fmt.Printf("%d cells: %d unexpected violation(s), %d expected non-IFP outcome(s), %d runs reused\n",
		len(s.Cells), len(unexpected), expected, sim.CacheHits())
	if *showExpected {
		fmt.Println(s.Summary())
	}

	for i, v := range unexpected {
		fmt.Printf("\n--- violation %d/%d ---\n%s\n", i+1, len(unexpected), v.Detail)
		if *noShrink {
			continue
		}
		l := s.Patterns[v.Cell.Pattern]
		occ := occByName(occs, v.Cell.Occ)
		fail := litmus.ViolationFailFn(v.Cell.Policy, v.Model, occ, *budget)
		min := litmus.Shrink(l, fail)
		wgCap := occ.Cap(min.NumWGs())
		fmt.Printf("shrunk (%d -> %d): %s at cap %d\n", litmus.Size(l), litmus.Size(min), min.Encode(), wgCap)
		name := fmt.Sprintf("LitmusRepro%s%d", strings.NewReplacer("-", "", ".", "").Replace(v.Cell.Policy), i+1)
		fmt.Println(litmus.RenderGoTest(min, name, "litmus_test", v.Cell.Policy, wgCap, v.Model))
	}
	if len(unexpected) > 0 {
		os.Exit(1)
	}
}

func occByName(occs []litmus.Occupancy, name string) litmus.Occupancy {
	for _, o := range occs {
		if o.Name == name {
			return o
		}
	}
	return litmus.Occupancies()[0]
}
