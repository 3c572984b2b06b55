// Package cp models the Command Processor firmware extensions of Section
// V: the CP stays off the critical path, handling only the high-latency,
// uncommon operations — draining the Monitor Log into a look-up-efficient
// in-memory table, and periodically checking the waiting conditions of
// spilled synchronization variables. The table (spillTable) is the only
// record of spilled conditions: it holds each condition's waiters and the
// check order a pass walks. The context-switch legs of WG scheduling run
// in the machine's dispatcher (package gpu).
package cp

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/syncmon"
)

// Config tunes the firmware's cadence.
type Config struct {
	// DrainInterval is how often the CP parses new Monitor Log entries.
	DrainInterval event.Cycle
	// CheckInterval is how often the CP re-checks spilled conditions.
	CheckInterval event.Cycle
	// DrainBatch bounds entries parsed per drain pass.
	DrainBatch int
}

// DefaultConfig returns a cadence that keeps spilled waiters' extra
// latency in the tens of microseconds, as a firmware loop would.
func DefaultConfig() Config {
	return Config{DrainInterval: 8_000, CheckInterval: 8_000, DrainBatch: 256}
}

type condKey struct {
	addr mem.Addr
	want int64
	cmp  gpu.Cmp
}

// Processor is the firmware model. It owns the spilled-condition table;
// the SyncMon owns the fast path.
type Processor struct {
	cfg  Config
	m    *gpu.Machine
	log  *syncmon.MonitorLog
	wake syncmon.WakeFunc

	tab    spillTable // spilled conditions, their waiters and check order
	maxTab int

	started bool // Start ran
	// The loops' cadence perturbation: each interval is stretched by
	// scale (SetCadenceScale) and skewed by up to maxSkew cycles drawn
	// from the skewState walk (SkewCadence). At most one is set.
	scale     event.Cycle
	maxSkew   event.Cycle
	skewState uint64

	scratch []condKey  // check-pass walk, rebuilt every pass
	wakeBuf []gpu.WGID // met condition's waiters, rebuilt every check
}

// New builds a processor draining log on machine m. wake delivers met
// conditions to the policy.
func New(cfg Config, m *gpu.Machine, log *syncmon.MonitorLog, wake syncmon.WakeFunc) (*Processor, error) {
	if cfg.DrainInterval == 0 || cfg.CheckInterval == 0 || cfg.DrainBatch <= 0 {
		return nil, fmt.Errorf("cp: bad config %+v", cfg)
	}
	return &Processor{
		cfg:  cfg,
		m:    m,
		log:  log,
		wake: wake,
		tab:  newSpillTable(),
	}, nil
}

// SkewCadence adds a pseudo-random skew in [0, maxSkew) cycles to every
// firmware loop interval — fault injection's model of a busy or
// descheduled CP. The skews walk a splitmix64 stream seeded by seed, so
// equal runs stretch the cadence identically; maxSkew 0 restores the exact
// cadence. It replaces any SetCadenceScale.
func (p *Processor) SkewCadence(seed uint64, maxSkew event.Cycle) {
	p.scale, p.maxSkew, p.skewState = 0, maxSkew, seed
}

// SetCadenceScale stretches the firmware loops' cadence by a constant
// integer factor — the fleet layer's thermal-throttle model: a derated
// device clocks its command processor down with its CUs. factor <= 1
// restores the exact cadence. It replaces any SkewCadence, as a later
// SkewCadence (a JitterCP fault) replaces it.
func (p *Processor) SetCadenceScale(factor int) {
	p.scale, p.maxSkew, p.skewState = event.Cycle(max(factor, 1)), 0, 0
}

// cadence applies the scale or skew to a base interval, keeping the
// result at least one cycle so the loops always advance.
func (p *Processor) cadence(base event.Cycle) event.Cycle {
	if p.scale > 1 {
		base *= p.scale
	}
	if p.maxSkew > 0 {
		base += event.Cycle(hashutil.SplitMix64(&p.skewState) % uint64(p.maxSkew))
	}
	if base == 0 {
		base = 1
	}
	return base
}

// Start arms the periodic firmware loops. Each pass books the next one,
// until the machine's kernels have all completed.
func (p *Processor) Start() {
	if p.started {
		return
	}
	p.started = true
	p.after(p.cfg.DrainInterval, runDrainPass)
	p.after(p.cfg.CheckInterval, runCheckPass)
}

// after books the firmware loop fn one interval from now: base, scaled or
// skewed by the cadence perturbation.
func (p *Processor) after(base event.Cycle, fn event.TaskFunc) {
	eng := p.m.Engine()
	t := eng.NewTask(fn)
	t.Env[0] = p
	eng.AfterTask(p.cadence(base), t)
}

func runDrainPass(t *event.Task) { t.Env[0].(*Processor).drainPass() }

func runCheckPass(t *event.Task) { t.Env[0].(*Processor).checkPass() }

// TableSize reports current spilled conditions tracked.
func (p *Processor) TableSize() int { return p.tab.waiters }

// MaxTableSize reports the high-water mark, the "Monitor Table" series of
// Figure 13.
func (p *Processor) MaxTableSize() int { return p.maxTab }

// StateBytes estimates the processor's simulated state: the spill table's
// slabs and indices.
func (p *Processor) StateBytes() int {
	t := &p.tab
	return 64 + 48*len(t.ents) + 16*len(t.wnodes) + 32*(t.idx.Len()+t.addrs.Len())
}

// Unregister withdraws a waiter (its policy timeout fired) so a later
// drain or check does not wake it spuriously. A spilled waiter is in
// exactly one of two places: the table (drained) or the Monitor Log ring
// (spilled, not yet drained). A drain pass pops each entry and files it
// in the same event, so no third, in-flight place exists.
func (p *Processor) Unregister(wg gpu.WGID, v gpu.Var, want int64, cmp gpu.Cmp) {
	k := condKey{v.Addr.WordAligned(), want, cmp}
	if !p.tab.removeWaiter(k, wg) {
		p.log.Remove(wg, k.addr, k.want)
	}
}

// drainPass moves log entries into the table.
func (p *Processor) drainPass() {
	if p.m.Done() {
		return
	}
	for i := 0; i < p.cfg.DrainBatch; i++ {
		e, ok := p.log.Pop()
		if !ok {
			break
		}
		p.tab.addWaiter(condKey{e.Addr, e.Want, e.Cmp}, e.WG)
		if p.tab.waiters > p.maxTab {
			p.maxTab = p.tab.waiters
		}
		p.noteHighWater()
	}
	p.after(p.cfg.DrainInterval, runDrainPass)
}

// noteHighWater folds the CP's occupancy into the machine counters — the
// Figure 13 series: waiting conditions, monitored addresses, waiting WGs,
// and the monitor table.
func (p *Processor) noteHighWater() {
	if n := p.tab.conditions(); n > p.m.Count.MaxConditions {
		p.m.Count.MaxConditions = n
	}
	if p.tab.waiters > p.m.Count.MaxWaitingWGs {
		p.m.Count.MaxWaitingWGs = p.tab.waiters
	}
	if n := p.tab.monitoredAddrs(); n > p.m.Count.MaxMonitoredVar {
		p.m.Count.MaxMonitoredVar = n
	}
}

// checkPass issues an L2 read per spilled condition and wakes the waiters
// of conditions that now hold ("asynchronous periodic condition check").
func (p *Processor) checkPass() {
	if p.m.Done() {
		return
	}
	// Walk the table's check order; map iteration order would break replay
	// determinism. Copy the walk before issuing anything: a met check drops
	// its condition from the list.
	p.scratch = p.tab.appendOrder(p.scratch[:0])
	for _, k := range p.scratch {
		t := p.m.Engine().NewTask(runCheckResult)
		t.Env[0] = p
		t.I[0] = int64(k.addr)
		t.I[1] = k.want
		t.I[2] = int64(k.cmp)
		p.m.IssueAtomic(nil, gpu.GlobalVar(k.addr), gpu.OpLoad, 0, 0, t)
	}
	p.after(p.cfg.CheckInterval, runCheckPass)
}

// runCheckResult receives one condition check's L2 read (the value in
// I[gpu.AtomicRet]) and wakes the condition's waiters if it now holds.
func runCheckResult(t *event.Task) {
	p := t.Env[0].(*Processor)
	k := condKey{mem.Addr(t.I[0]), t.I[1], gpu.Cmp(t.I[2])}
	if !k.cmp.Test(t.I[gpu.AtomicRet], k.want) {
		return
	}
	p.wakeBuf = p.tab.dropWaiters(k, p.wakeBuf[:0])
	for _, wg := range p.wakeBuf {
		p.wake(wg, k.addr, k.want, true)
	}
}
