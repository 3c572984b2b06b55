// Package sim is the experiment-session layer between the public awg API /
// the experiment harnesses and the GPU model underneath. It owns the
// construction of one simulation — config → memory → machine → policy →
// tracer — and provides a worker pool (ForEach, and RunAll on top of it)
// that fans *independent* simulations out across OS cores.
//
// Each simulation keeps its single-goroutine deterministic event engine, so
// a run's result is bit-identical whether it executes on the serial path or
// inside the pool; only wall-clock time changes. That property is what lets
// the paper's evaluation — hundreds of independent (benchmark × policy ×
// oversubscription) runs — scale with the host machine, and it is enforced
// by TestRunAllMatchesSerial.
package sim

import (
	"fmt"
	"sync/atomic"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/trace"
)

// Injection schedules a second kernel mid-run (the Section V.D priority
// experiment): Spec launches at cycle At with the given priority.
type Injection struct {
	Spec     *gpu.KernelSpec
	At       event.Cycle
	Priority int
}

// Config describes one simulation. Zero-valued fields take the paper's
// baseline (Table 1 machine, full launch, default policy parameters).
type Config struct {
	// Benchmark names the kernel: one of kernels.All()/Apps().
	// Leave empty when Kernel supplies an explicit spec instead.
	Benchmark string
	// Policy names the scheduling architecture, including parameterized
	// forms such as "Sleep-16k" / "Timeout-50k".
	Policy string

	// Kernel overrides Benchmark with an explicit kernel spec; Init and
	// Verify then take the roles kernels.Benchmark gives them (either may
	// be nil). The harness-built episodes (e.g. Figure 6's
	// producer/consumer) use this.
	Kernel *gpu.KernelSpec
	Init   func(write func(mem.Addr, int64))
	Verify func(read func(mem.Addr) int64) error

	// GPU/Mem override the Table 1 machine when non-zero.
	GPU gpu.Config
	Mem mem.Config

	// Params override the launch shape when NumWGs is non-zero.
	Params kernels.Params

	// Oversubscribe enables the dynamic resource-loss experiment: one CU is
	// preempted at PreemptAt (default 100k cycles = 50 µs at 2 GHz).
	Oversubscribe bool
	PreemptAt     event.Cycle

	// Inject optionally launches a second kernel mid-run.
	Inject *Injection

	// Faults, when non-nil, arms a fault-injection schedule on the machine
	// (CU loss/restore, SyncMon degradation, CP cadence jitter).
	Faults *fault.Schedule

	// CycleBudget caps the run's simulated cycles (0 = the GPU config's
	// MaxCycles). awgexp sets it so livelocked runs terminate diagnosed
	// instead of burning the full two-billion-cycle default. It also arms
	// an event budget (64 events/cycle) against zero-delay livelocks that
	// never advance the clock.
	CycleBudget uint64

	// Tracer, when non-nil, records the run's per-WG timeline.
	Tracer *trace.Recorder

	// Seed perturbs the machine's deterministic jitter stream. Runs with
	// equal seeds are bit-identical; the default 0 reproduces the
	// historical stream.
	Seed uint64
}

// fill derives defaults.
func (c *Config) fill() error {
	if c.Benchmark == "" && c.Kernel == nil {
		return fmt.Errorf("sim: no benchmark named")
	}
	if c.Policy == "" {
		return fmt.Errorf("sim: no policy named")
	}
	if c.GPU.NumCUs == 0 {
		c.GPU = gpu.DefaultConfig()
	}
	if c.Mem.LineSize == 0 {
		c.Mem = mem.DefaultConfig()
	}
	if c.Params.NumWGs == 0 {
		c.Params = kernels.DefaultParams()
		c.Params.Groups = c.GPU.NumCUs
		c.Params.NumWGs = c.GPU.NumCUs * c.GPU.MaxWGsPerCU
	}
	if c.PreemptAt == 0 {
		c.PreemptAt = 100_000 // 50 µs at 2 GHz
	}
	if c.CycleBudget != 0 {
		if c.GPU.MaxCycles == 0 || c.CycleBudget < c.GPU.MaxCycles {
			c.GPU.MaxCycles = c.CycleBudget
		}
		if c.GPU.MaxEvents == 0 {
			c.GPU.MaxEvents = c.CycleBudget * 64
		}
	}
	return nil
}

// Session is one fully constructed simulation: machine built, memory
// initialized, policy attached, tracer and scheduled events (CU preemption,
// kernel injection) in place. Between NewSession and Run a harness may
// reach through Machine() for bespoke setup the Config cannot express.
type Session struct {
	cfg    Config
	m      *gpu.Machine
	verify func(read func(mem.Addr) int64) error

	injected    gpu.KernelHandle
	hasInjected bool
}

// NewSession builds a simulation from cfg without running it.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	spec := cfg.Kernel
	initFn, verifyFn := cfg.Init, cfg.Verify
	if spec == nil {
		bench, err := kernels.Build(cfg.Benchmark, cfg.Params)
		if err != nil {
			return nil, err
		}
		spec, initFn, verifyFn = &bench.Spec, bench.Init, bench.Verify
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	m, err := gpu.NewMachine(cfg.GPU, cfg.Mem, spec, pol)
	if err != nil {
		return nil, err
	}
	if initFn != nil {
		initFn(m.Mem().Write)
	}
	if cfg.Seed != 0 {
		m.SeedJitter(cfg.Seed)
	}
	if cfg.Tracer != nil {
		m.SetTracer(cfg.Tracer)
	}
	if cfg.Oversubscribe {
		m.ScheduleCU(cfg.PreemptAt, gpu.CUID(cfg.GPU.NumCUs-1), false)
	}
	s := &Session{cfg: cfg, m: m, verify: verifyFn}
	if cfg.Faults != nil {
		if err := fault.Arm(m, *cfg.Faults, 0); err != nil {
			return nil, err
		}
	}
	if inj := cfg.Inject; inj != nil {
		h, err := m.InjectKernel(inj.Spec, inj.At, inj.Priority)
		if err != nil {
			return nil, err
		}
		s.injected, s.hasInjected = h, true
	}
	return s, nil
}

// Machine exposes the constructed machine for bespoke pre-run setup and
// post-run inspection (memory reads, extra injections).
func (s *Session) Machine() *gpu.Machine { return s.m }

// Release recycles the session machine's large buffers (engine, cache tag
// arrays) into their package pools. One-shot paths call it after the
// result is extracted, and the fleet layer when a rewind discards a
// machine; the session and its machine must not be used afterward.
func (s *Session) Release() { s.m.ReleaseBuffers() }

// InjectedLatency reports the injected kernel's launch-to-finish latency
// (0 when nothing was injected or it did not finish).
func (s *Session) InjectedLatency() uint64 {
	if !s.hasInjected {
		return 0
	}
	return s.injected.Latency()
}

// Run executes the session's simulation to completion, deadlock, or the
// cycle cap, then functionally validates a completed run. A deadlocked run is not an error — Result.Deadlocked
// reports it. Run may be called once.
func (s *Session) Run() (metrics.Result, error) { return s.settle(s.m.Run()) }

// Finish completes a staged run the caller drove itself through
// Machine().Prepare/RunTo (the fleet layer's per-slice pacing does this):
// it classifies and tears the run down (gpu.Machine.FinishRun), accounts
// the simulated work in the process-wide ledger, and functionally
// validates a completed run exactly like Run. Call once, after the last
// RunTo.
func (s *Session) Finish() (metrics.Result, error) { return s.settle(s.m.FinishRun()) }

// settle accounts a finished run in the process-wide ledger and
// functionally validates it unless it deadlocked or has no Verify.
func (s *Session) settle(res metrics.Result) (metrics.Result, error) {
	totalCycles.Add(res.Cycles)
	totalRuns.Add(1)
	if res.Deadlocked || s.verify == nil {
		return res, nil
	}
	if err := s.verify(s.m.Mem().Read); err != nil {
		return res, fmt.Errorf("sim: %s under %s completed but failed validation: %w",
			res.Benchmark, res.Policy, err)
	}
	return res, nil
}

// Run builds, runs and releases one simulation. It always simulates:
// callers that meet the same Config twice (an experiment grid, a litmus
// sweep) keep the first Result and account each copy with Reuse. Callers
// needing post-run access to the machine use NewSession directly.
func Run(cfg Config) (metrics.Result, error) {
	o := runJob(Job{Config: cfg})
	return o.Result, o.Err
}

// totalCycles/totalRuns account all simulated work since process start (or
// the last ResetTotals), reused Results included; awgexp's golden record
// pins them per experiment. reuses counts the Reuse calls since process
// start (or the last ResetCache).
var (
	totalCycles atomic.Uint64
	totalRuns   atomic.Uint64
	reuses      atomic.Uint64
)

// Totals reports the simulated cycles and completed runs accounted so far.
func Totals() (cycles, runs uint64) { return totalCycles.Load(), totalRuns.Load() }

// ResetTotals zeroes the simulated-work accounting.
func ResetTotals() { totalCycles.Store(0); totalRuns.Store(0) }

// Reuse accounts res, the Result of a run the caller already has, as one
// more run of an equal Config: a simulation is a pure function of its
// Config, so Totals, and the golden counts built on it, read the same as
// if the copy had simulated. It also counts one reuse in CacheHits. A
// zero Result is what a Config that fails construction returns; it never
// ran, and its copy counts nothing.
func Reuse(res metrics.Result) {
	if res == (metrics.Result{}) {
		return
	}
	totalCycles.Add(res.Cycles)
	totalRuns.Add(1)
	reuses.Add(1)
}

// CacheHits reports how many Results callers reused (Reuse) since process
// start or the last ResetCache. The name predates Reuse; it stays for the
// benchmark's callers.
func CacheHits() uint64 { return reuses.Load() }

// ResetCache zeroes the CacheHits count; see CacheHits for the name.
func ResetCache() { reuses.Store(0) }

// ForkStats always reports zeros. It counted runs completed from a shared
// sweep-prefix snapshot, the prefix cycles they skipped, and the snapshot
// bytes; every sweep job now runs cold, so nothing is counted. It stays,
// with ResetForkStats, only so existing callers keep compiling until they
// drop it.
func ForkStats() (forks, prefixCyclesSaved, snapshotBytes uint64) { return 0, 0, 0 }

// ResetForkStats does nothing; see ForkStats.
func ResetForkStats() {}
