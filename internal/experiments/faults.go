package experiments

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/metrics"
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

// faultSchedule returns the schedule of the set named name, or nil.
func (o Options) faultSchedule(name string) *fault.Schedule {
	for _, s := range o.faultSchedules() {
		if s.Name == name {
			return &s
		}
	}
	return nil
}

// faultCell is the faults experiment's cell for one (bench, policy,
// schedule): a 2x-capacity launch, so the machine is oversubscribed and
// Baseline's busy-waiters pin every slot. An empty sched leaves out the
// schedule and the scale's cycle budget.
func (o Options) faultCell(bench, policy, sched string) cell {
	g := o.gpuConfig()
	return cell{bench: bench, policy: policy, numWGs: 2 * g.NumCUs * g.MaxWGsPerCU, sched: sched}
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
	var cells []cell
	for _, b := range benches {
		for _, p := range faultPolicies {
			for _, s := range scheds {
				cells = append(cells, o.faultCell(b, p, s.Name))
			}
		}
	}
	grid, err := o.batch(cells)
	if err != nil {
		return nil, fmt.Errorf("faults %w", err)
	}

	cols := []string{"Benchmark", "Policy"}
	for _, s := range scheds {
		cols = append(cols, s.Name)
	}
	t := metrics.NewTable("Fault injection: runtime (cycles) by policy x fault schedule, 2x capacity", cols...)
	for _, b := range benches {
		for _, p := range faultPolicies {
			row := []any{b, p}
			for _, s := range scheds {
				res := grid[o.faultCell(b, p, s.Name)]
				if res.Deadlocked {
					row = append(row, deadlockMark)
				} else {
					row = append(row, res.Cycles)
				}
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// FaultsWorkedExample renders one Baseline deadlock diagnosis in full — the
// worked example README documents: an oversubscribed SPM_G launch under the
// first scripted schedule, diagnosed with the blocking conditions named.
// The cell is one the faults table ran, so Options that ran it reuse its
// Result.
func FaultsWorkedExample(o Options) (string, error) {
	sched := o.faultSchedules()[0].Name
	c := o.faultCell("SPM_G", "Baseline", sched)
	grid, err := o.batch([]cell{c})
	if err != nil {
		return "", fmt.Errorf("faults example: %w", err)
	}
	res := grid[c]
	if !res.Deadlocked || res.Diagnosis == nil {
		return "", fmt.Errorf("faults example: Baseline 2x under %s did not produce a diagnosis", sched)
	}
	return fmt.Sprintf("Worked example: %s under %s, schedule %q\n%s",
		res.Benchmark, res.Policy, sched, res.Diagnosis.String()), nil
}
