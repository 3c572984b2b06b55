// Package awg is the public API of the AWG simulator, a reproduction of
// "Independent Forward Progress of Work-groups" (Duțu et al., ISCA 2020).
//
// It is a thin facade over the internal/sim session layer, which composes
// the internal substrates — discrete-event engine, memory hierarchy, GPU
// execution model, SyncMon, Command Processor — into single simulation
// runs:
//
//	res, err := awg.Run(awg.Config{Benchmark: "SPM_G", Policy: "AWG"})
//
// runs the global-scope spin-mutex benchmark under the Autonomous
// Work-Groups architecture on the paper's Table 1 machine and reports
// runtime, scheduling activity, and synchronization characterization.
// Setting Oversubscribe reproduces the paper's dynamic resource-loss
// experiment: one CU is preempted away 50 µs into the kernel.
package awg

import (
	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// Result re-exports the run result type.
type Result = metrics.Result

// Config describes one simulation run. Zero-valued fields take the paper's
// baseline (Table 1 machine, 32 WGs of 64 work-items, default policy
// parameters).
type Config struct {
	// Benchmark names the kernel: one of Benchmarks().
	Benchmark string
	// Policy names the scheduling architecture: one of Policies(), or a
	// parameterized form such as "Sleep-16k" / "Timeout-50k".
	Policy string

	// GPU/Mem override the Table 1 machine when non-zero.
	GPU gpu.Config
	Mem mem.Config

	// Params override the launch shape when NumWGs is non-zero. Groups and
	// WGs-per-group must match the machine (Groups = NumCUs, WGsPerGroup =
	// MaxWGsPerCU) for the local-scope benchmarks to be meaningful.
	Params kernels.Params

	// Oversubscribe enables the dynamic resource-loss experiment: one CU is
	// preempted at PreemptAt (default 100k cycles = 50 µs at 2 GHz).
	Oversubscribe bool
	PreemptAt     event.Cycle

	// Seed perturbs the machine's deterministic jitter stream. Runs with
	// equal seeds are bit-identical; the default 0 reproduces the
	// historical stream.
	Seed uint64
}

// session translates the public config into the session layer's form.
func (c Config) session() sim.Config {
	return sim.Config{
		Benchmark:     c.Benchmark,
		Policy:        c.Policy,
		GPU:           c.GPU,
		Mem:           c.Mem,
		Params:        c.Params,
		Oversubscribe: c.Oversubscribe,
		PreemptAt:     c.PreemptAt,
		Seed:          c.Seed,
	}
}

// Benchmarks lists the twelve paper benchmarks in figure order.
func Benchmarks() []string { return kernels.All() }

// AppBenchmarks lists the application workloads (hash table, bank account).
func AppBenchmarks() []string { return kernels.Apps() }

// Policies lists the canonical policy names in the paper's design-space
// order.
func Policies() []string { return sim.Policies() }

// NewPolicy builds a scheduling policy from its name. Sleep and Timeout
// accept an interval suffix in thousands of cycles: "Sleep-16k",
// "Timeout-50k". Bare "Sleep" and "Timeout" use 16k and 20k respectively.
func NewPolicy(name string) (gpu.Policy, error) { return sim.NewPolicy(name) }

// Run executes one simulation and returns its result. A completed run is
// functionally validated (lock counts, conserved balances, barrier
// epochs); a validation failure is returned as an error. A deadlocked run
// is not an error — Result.Deadlocked reports it.
func Run(cfg Config) (Result, error) {
	return sim.Run(cfg.session())
}

// RunAll executes many independent simulations in parallel, one worker per
// core, preserving input order. Per-run results are bit-identical to Run;
// see internal/sim for the pooled session layer this wraps.
func RunAll(cfgs []Config) ([]Result, []error) {
	jobs := make([]sim.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = sim.Job{Config: c.session()}
	}
	outs := sim.RunAll(jobs)
	results := make([]Result, len(outs))
	errs := make([]error, len(outs))
	for i, o := range outs {
		results[i], errs[i] = o.Result, o.Err
	}
	return results, errs
}

// MustRun is Run, panicking on configuration or validation errors; it keeps
// example code terse.
func MustRun(cfg Config) Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}
