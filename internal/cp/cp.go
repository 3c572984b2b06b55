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

	started bool        // Start ran
	stopped func() bool // wired by Start: the loops' exit probe
	// jitter perturbs loop cadence; its pseudo-random walk lives in
	// jitterState, seeded by SetCadenceJitter.
	jitter      func(state *uint64, base event.Cycle) event.Cycle
	jitterState uint64

	drainFn, checkFn func()     // the firmware loops, hoisted by Start
	scratch          []condKey  // check-pass walk, rebuilt every pass
	wakeBuf          []gpu.WGID // met condition's waiters, rebuilt every check
}

// New builds a processor draining log on machine m. wake delivers met
// conditions to the policy. stopped, if non-nil, lets the owner end the
// periodic firmware loop (e.g. when the kernel completes).
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

// SetCadenceJitter installs a hook that perturbs the firmware loops'
// rescheduling intervals (fault injection models a busy or descheduled CP
// by stretching its cadence). The hook receives the configured base
// interval and returns the one to use; nil restores the exact cadence.
// Hooks keep any evolving randomness in *state, seeded here.
func (p *Processor) SetCadenceJitter(f func(state *uint64, base event.Cycle) event.Cycle, seed uint64) {
	p.jitter = f
	p.jitterState = seed
}

// SetCadenceScale stretches the firmware loops' cadence by a constant
// integer factor — the fleet layer's thermal-throttle model: a derated
// device clocks its command processor down with its CUs. factor <= 1
// restores the exact cadence, clearing any JitterCP skew. Implemented
// through the jitter hook with no evolving state; a subsequent
// SetCadenceJitter (e.g. a JitterCP fault) replaces it.
func (p *Processor) SetCadenceScale(factor int) {
	if factor <= 1 {
		p.SetCadenceJitter(nil, 0)
		return
	}
	f := event.Cycle(factor)
	p.SetCadenceJitter(func(_ *uint64, base event.Cycle) event.Cycle { return base * f }, 0)
}

// cadence applies the jitter hook to a base interval, keeping the result
// at least one cycle so the loops always advance.
func (p *Processor) cadence(base event.Cycle) event.Cycle {
	if p.jitter != nil {
		base = p.jitter(&p.jitterState, base)
	}
	if base == 0 {
		base = 1
	}
	return base
}

// Start arms the periodic firmware loops. stopUnless reports whether the
// loops should keep running (typically "kernel not finished").
func (p *Processor) Start(keepRunning func() bool) {
	if p.started {
		return
	}
	p.started = true
	p.stopped = func() bool { return keepRunning != nil && !keepRunning() }
	p.drainFn = p.drainPass
	p.checkFn = p.checkPass
	p.m.Engine().After(p.cadence(p.cfg.DrainInterval), p.drainFn)
	p.m.Engine().After(p.cadence(p.cfg.CheckInterval), p.checkFn)
}

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
	if p.stopped() {
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
	p.m.Engine().After(p.cadence(p.cfg.DrainInterval), p.drainFn)
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
	if n := p.tab.monitoredAddrs(); n > p.m.Count.MaxMonitoredVars {
		p.m.Count.MaxMonitoredVars = n
	}
}

// checkPass issues an L2 read per spilled condition and wakes the waiters
// of conditions that now hold ("asynchronous periodic condition check").
func (p *Processor) checkPass() {
	if p.stopped() {
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
		p.m.IssueAtomicTask(nil, gpu.GlobalVar(k.addr), gpu.OpLoad, 0, 0, t)
	}
	p.m.Engine().After(p.cadence(p.cfg.CheckInterval), p.checkFn)
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
