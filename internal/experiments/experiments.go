// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Table* function runs the required simulations and
// returns both the raw data and a rendered text table whose rows/series
// match what the paper reports. The awgexp command prints them.
//
// Every experiment enumerates its (benchmark × policy × scenario) grid up
// front and hands the whole batch to the sim package's worker pool, so a
// figure's cells simulate in parallel on a multi-core host. Per-cell
// results are bit-identical to serial execution — each simulation keeps its
// own single-goroutine event engine — so the tables are reproducible
// regardless of core count.
//
// Absolute magnitudes differ from the paper (our substrate is a
// from-scratch timing model, not the authors' gem5 configuration); the
// shapes — who wins, roughly by how much, where the crossovers fall — are
// the reproduction target. EXPERIMENTS.md records paper-vs-measured for
// every experiment.
package experiments

import (
	"fmt"
	"strings"

	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks the launches so the whole suite runs in seconds;
	// used by unit tests and the quick golden record. Shapes remain,
	// exact ratios move.
	Quick bool

	// memo maps every grid cell simulated through these Options, defaults
	// filled in (key), to its Result, so a cell that recurs in a later
	// experiment reuses it. It is not locked: experiments sharing Options
	// run one at a time, as in awgexp and the tests. Nil (a literal
	// Options) simulates every experiment afresh.
	memo map[cell]metrics.Result
}

// NewOptions returns Options at the given scale whose experiments share
// their grid cells: each distinct cell simulates once, however many
// experiments run it.
func NewOptions(quick bool) Options {
	return Options{Quick: quick, memo: map[cell]metrics.Result{}}
}

// params returns the launch parameters for the configured scale.
func (o Options) params() kernels.Params {
	p := kernels.DefaultParams()
	if o.Quick {
		cfg := gpu.DefaultConfig()
		p.NumWGs = cfg.NumCUs * cfg.MaxWGsPerCU / 4
		p.Iters = 3
	}
	return p
}

// gpuConfig returns the machine for the configured scale: quick mode
// shrinks the occupancy cap so the launch still exactly fills the GPU.
func (o Options) gpuConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	if o.Quick {
		cfg.MaxWGsPerCU /= 4
	}
	return cfg
}

// cell identifies one simulation in an experiment's grid. Zero iters and
// numWGs take the scale's defaults. sched names a fault schedule of the
// faults experiment's set; a cell with one runs under it, within the
// scale's fault budget.
type cell struct {
	bench, policy string
	oversub       bool
	iters         int
	numWGs        int
	sched         string
}

// key fills c's zero iters and numWGs with the scale's defaults, so cells
// that denote the same run compare equal: Oversweep's 1x cells name the
// default launch size that table2 and fig14 leave zero.
func (o Options) key(c cell) cell {
	p := o.params()
	if c.iters == 0 {
		c.iters = p.Iters
	}
	if c.numWGs == 0 {
		c.numWGs = p.NumWGs
	}
	return c
}

// simConfig translates a grid cell into a session config at the experiment
// scale.
func (o Options) simConfig(c cell) sim.Config {
	c = o.key(c)
	p := o.params()
	p.Iters, p.NumWGs = c.iters, c.numWGs
	cfg := sim.Config{
		Benchmark:     c.bench,
		Policy:        c.policy,
		GPU:           o.gpuConfig(),
		Params:        p,
		Oversubscribe: c.oversub,
	}
	if o.Quick {
		// Scale the preemption instant with the shrunken runs so every
		// policy is still mid-kernel when the CU disappears.
		cfg.PreemptAt = 10_000
	}
	if c.sched != "" {
		cfg.Faults = o.faultSchedule(c.sched)
		_, cfg.CycleBudget = o.faultScale()
	}
	return cfg
}

// batch simulates every distinct cell through the sim worker pool and
// returns the results keyed by cell. Duplicate cells (a base run shared by
// several rows) simulate once, and a cell an earlier experiment ran through
// the same Options takes its Result from the memo, accounted by sim.Reuse.
// Every simulated cell's outcome must pass the IFP invariant
// (fault.CheckOutcome): a deadlock renders only under a non-IFP policy,
// and only diagnosed. Any cell's error or violation fails the whole batch,
// labeled with the cell that produced it.
func (o Options) batch(cells []cell) (map[cell]metrics.Result, error) {
	results := make(map[cell]metrics.Result, len(cells))
	var jobs []sim.Job
	var fresh []cell
	for _, c := range cells {
		if _, ok := results[c]; ok {
			continue
		}
		if res, ok := o.memo[o.key(c)]; ok {
			sim.Reuse(res)
			results[c] = res
			continue
		}
		results[c] = metrics.Result{} // claimed; filled once simulated
		jobs = append(jobs, sim.Job{Config: o.simConfig(c)})
		fresh = append(fresh, c)
	}
	for i, out := range sim.RunAll(jobs) {
		c := fresh[i]
		if err := fault.CheckOutcome(c.policy, out.Result, out.Err); err != nil {
			if c.sched != "" {
				return nil, fmt.Errorf("%s/%s under %s: %w", c.bench, c.policy, c.sched, err)
			}
			return nil, fmt.Errorf("%s/%s: %w", c.bench, c.policy, err)
		}
		results[c] = out.Result
		if o.memo != nil {
			o.memo[o.key(c)] = out.Result
		}
	}
	return results, nil
}

// Experiment identifies one regenerable artifact.
type Experiment struct {
	ID    string // "table1", "fig14", ...
	Title string
	Run   func(o Options) (*metrics.Table, error)
	// Example renders the worked example printed after the table; nil
	// for an experiment without one.
	Example func(o Options) (string, error)
}

// All lists every experiment in paper order, closing with the Section V.C
// hardware budget.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: baseline GPU model", func(o Options) (*metrics.Table, error) { return Table1(o), nil }, nil},
		{"table2", "Table 2: benchmark characterization", Table2, nil},
		{"fig5", "Figure 5: work-group context size", func(o Options) (*metrics.Table, error) { return Fig5(o) }, nil},
		{"fig6", "Figure 6: policy timeline signatures", Fig6, Fig6Timelines},
		{"fig7", "Figure 7: exponential backoff (Sleep-Xk) sweep", Fig7, nil},
		{"fig8", "Figure 8: timeout interval sweep", Fig8, nil},
		{"fig9", "Figure 9: wait efficiency vs MinResume", Fig9, nil},
		{"fig11", "Figure 11: WG execution breakdown", Fig11, nil},
		{"fig13", "Figure 13: CP scheduling structure sizes", Fig13, nil},
		{"fig14", "Figure 14: non-oversubscribed speedup vs Baseline", Fig14, nil},
		{"fig15", "Figure 15: oversubscribed speedup vs Timeout", Fig15, nil},
		{"ablation", "Ablation: AWG predictor/virtualization variants", Ablation, nil},
		{"priority", "Priority: high-priority kernel injection (Section V.D)", Priority, nil},
		{"oversweep", "Launch oversubscription sweep (1x/2x/4x capacity)", Oversweep, nil},
		{"faults", "Fault injection: IFP under CU loss, monitor degradation, CP jitter", Faults, FaultsWorkedExample},
		{"fleet", "Fleet: device health events, migration under churn, SLO checking", Fleet, FleetWorkedExample},
		{"litmus", "Litmus: generated progress-model conformance matrix (OBE/HSA/LinOcc/IFP)", Litmus, LitmusWorkedExamples},
		{"overhead", "AWG hardware overhead (Section V.C)", func(Options) (*metrics.Table, error) { return HardwareOverhead(), nil }, nil},
	}
}

// Section renders the experiment's part of the golden record: its table,
// then its worked example's text if it has one, then the footer
// `[<id>: sim_runs N, sim_cycles C]` with the runs and cycles the table
// simulated (sim.Totals deltas; the example's own runs are not counted).
// An error from the table or the example fails the whole section. The
// record is the sections in All's order, separated by blank lines.
func (e Experiment) Section(o Options) (string, error) {
	cyc0, runs0 := sim.Totals()
	tab, err := e.Run(o)
	if err != nil {
		return "", err
	}
	cyc1, runs1 := sim.Totals()
	out := tab.String() + "\n"
	if e.Example != nil {
		text, err := e.Example(o)
		if err != nil {
			return "", fmt.Errorf("worked example: %w", err)
		}
		out += text + "\n"
	}
	return out + fmt.Sprintf("[%s: sim_runs %d, sim_cycles %d]\n", e.ID, runs1-runs0, cyc1-cyc0), nil
}

// Get returns the experiment with the given ID. An unknown ID's error
// lists every available experiment, so a typo on the awgexp command line
// is self-correcting.
func Get(id string) (Experiment, error) {
	all := All()
	for _, e := range all {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q; available: %s", id, strings.Join(ids, ", "))
}
