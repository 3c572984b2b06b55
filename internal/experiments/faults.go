package experiments

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// faultPolicies is the faults experiment's policy set: the non-IFP
// Baseline (expected to deadlock, diagnosed) against the IFP-providing
// timeout, monitor and AWG architectures and the AWG ablation variants
// (required to complete verified under every schedule).
var faultPolicies = []string{
	"Baseline", "Timeout", "MonNR-All", "MonNR-One", "MonRS-All", "MonR-All",
	"AWG", "AWG-nostall", "AWG-nopredict", "AWG-nocache",
}

// faultRandomSeeds addresses the randomized schedules; fixed so the
// experiment is a regression artifact, not a dice roll.
var faultRandomSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// faultScale bundles the experiment's time constants at the configured
// scale: where the fault window opens (after waiting state builds up) and
// the per-run cycle budget that terminates livelocked runs diagnosed.
func (o Options) faultScale() (base event.Cycle, budget uint64) {
	if o.Quick {
		return 10_000, 20_000_000
	}
	return 100_000, 200_000_000
}

// faultSchedules enumerates the experiment's schedule set: the scripted
// sequences plus the seeded random ones, all scaled to the machine.
func (o Options) faultSchedules() []fault.Schedule {
	cfg := o.gpuConfig()
	base, _ := o.faultScale()
	scheds := fault.Scripted(cfg.NumCUs, base)
	for _, seed := range faultRandomSeeds {
		scheds = append(scheds, fault.Random(seed, cfg.NumCUs, base, 8*base))
	}
	return scheds
}

// faultConfig is the faults experiment's session for one (bench, policy,
// schedule) cell: a 2x-capacity launch (so the machine is oversubscribed
// and Baseline's busy-waiters pin every slot) under the given schedule and
// the scale's cycle budget.
func (o Options) faultConfig(bench, policy string, sched fault.Schedule) sim.Config {
	cfg := o.simConfig(cell{bench: bench, policy: policy})
	gcfg := o.gpuConfig()
	p := o.params()
	p.NumWGs = 2 * gcfg.NumCUs * gcfg.MaxWGsPerCU
	cfg.Params = p
	s := sched
	cfg.Faults = &s
	_, cfg.CycleBudget = o.faultScale()
	return cfg
}

// Faults is the robustness experiment: every policy runs oversubscribed
// (2x resident capacity) under every fault schedule — repeated CU
// loss/restore, monitor capacity collapse, CP cadence jitter, and seeded
// random mixes — and the IFP invariant is enforced on every cell: the
// IFP-providing policies must complete with verified results; Baseline
// may deadlock but must produce a structured diagnosis. Any violation
// fails the experiment.
func Faults(o Options) (*metrics.Table, error) {
	benches := []string{"SPM_G", "TB_LG"}
	scheds := o.faultSchedules()

	var jobs []sim.Job
	type key struct {
		bench, policy string
		sched         int
	}
	var keys []key
	for _, b := range benches {
		for _, p := range faultPolicies {
			for si, s := range scheds {
				jobs = append(jobs, sim.Job{Config: o.faultConfig(b, p, s)})
				keys = append(keys, key{b, p, si})
			}
		}
	}
	outs := sim.RunAll(jobs)

	cols := []string{"Benchmark", "Policy"}
	for _, s := range scheds {
		cols = append(cols, s.Name)
	}
	t := metrics.NewTable("Fault injection: runtime (cycles) by policy x fault schedule, 2x capacity", cols...)
	byKey := make(map[key]metrics.Result, len(outs))
	var violations []string
	for i, out := range outs {
		k := keys[i]
		if cerr := fault.CheckOutcome(k.policy, out.Result, out.Err); cerr != nil {
			violations = append(violations, fmt.Sprintf("%s under %s: %v", k.bench, scheds[k.sched].Name, cerr))
		}
		byKey[k] = out.Result
	}
	for _, b := range benches {
		for _, p := range faultPolicies {
			row := []any{b, p}
			for si := range scheds {
				res := byKey[key{b, p, si}]
				if res.Deadlocked {
					row = append(row, deadlockMark)
				} else {
					row = append(row, res.Cycles)
				}
			}
			t.AddRow(row...)
		}
	}
	if len(violations) > 0 {
		return t, fmt.Errorf("faults: %d IFP invariant violation(s), first: %s", len(violations), violations[0])
	}
	return t, nil
}

// FaultsWorkedExample renders one Baseline deadlock diagnosis in full — the
// worked example README documents: an oversubscribed SPM_G launch under the
// first scripted schedule, diagnosed with the blocking conditions named.
func FaultsWorkedExample(o Options) (string, error) {
	scheds := o.faultSchedules()
	res, err := sim.Run(o.faultConfig("SPM_G", "Baseline", scheds[0]))
	if err != nil {
		return "", fmt.Errorf("faults example: %w", err)
	}
	if !res.Deadlocked || res.Diagnosis == nil {
		return "", fmt.Errorf("faults example: Baseline 2x under %s did not produce a diagnosis", scheds[0].Name)
	}
	return fmt.Sprintf("Worked example: %s under %s, schedule %q\n%s",
		res.Benchmark, res.Policy, scheds[0].Name, res.Diagnosis.String()), nil
}
