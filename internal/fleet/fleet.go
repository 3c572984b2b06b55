package fleet

import (
	"fmt"
	"sort"

	"awgsim/internal/cp"
	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// Config describes one fleet run: K devices multiplexing the given
// workloads under a fault plane. Zero-valued knobs take the defaults
// below.
type Config struct {
	// Devices is the fleet size K.
	Devices int
	// MinDevices is the survivable-capacity floor: when churn leaves fewer
	// devices on the bus, the fleet drains cleanly (diagnosed stop on every
	// live workload) instead of limping or deadlocking. Default 1.
	MinDevices int

	// Workloads are the simulations to place, round-robin across devices.
	// Their Faults field must be nil — device-coupled fault schedules
	// arrive through DeviceFaults instead.
	Workloads []sim.Config

	// Plane is the fleet-level health-event schedule.
	Plane Schedule

	// DeviceFaults optionally couples a machine-level fault schedule (CU
	// loss, monitor degradation, CP jitter) to each device: a workload
	// experiences the schedule of whichever device hosts it. Sequence
	// numbers for every device's schedule are reserved at session
	// construction, so arming the home device at genesis and a target
	// device's tail after a migration lands on identical calendar
	// positions across runs. Nil, or exactly Devices entries.
	DeviceFaults []fault.Schedule

	// CheckpointEvery is the fleet-cycle cadence of checkpoint refreshes —
	// the bound on work lost to a migration or ECC rewind. Default 50_000.
	CheckpointEvery event.Cycle
	// FleetBudget caps the run in fleet cycles; live workloads at the cap
	// finish diagnosed with metrics.ReasonFleetBudget. Default 100_000_000.
	FleetBudget event.Cycle
	// MigrationPauseBase is the fixed fleet-cycle cost of a migration; the
	// transplanted state adds Snapshot.Bytes()/128 on top. Default 2_000.
	MigrationPauseBase event.Cycle
	// ECCRecoveryPause is the fleet-cycle cost of an ECC retire-and-rewind.
	// Default 2_000.
	ECCRecoveryPause event.Cycle

	// SLO is the fleet's service contract (see slo.go).
	SLO SLO
}

func (c *Config) fill() error {
	if c.Devices < 1 {
		return fmt.Errorf("fleet: %d devices", c.Devices)
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("fleet: no workloads")
	}
	for i := range c.Workloads {
		if c.Workloads[i].Faults != nil {
			return fmt.Errorf("fleet: workload %d carries its own fault schedule; use DeviceFaults", i)
		}
	}
	if c.DeviceFaults != nil && len(c.DeviceFaults) != c.Devices {
		return fmt.Errorf("fleet: %d device fault schedules for %d devices", len(c.DeviceFaults), c.Devices)
	}
	if c.MinDevices == 0 {
		c.MinDevices = 1
	}
	if c.MinDevices > c.Devices {
		return fmt.Errorf("fleet: floor %d above fleet size %d", c.MinDevices, c.Devices)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 50_000
	}
	if c.FleetBudget == 0 {
		c.FleetBudget = 100_000_000
	}
	if c.MigrationPauseBase == 0 {
		c.MigrationPauseBase = 2_000
	}
	if c.ECCRecoveryPause == 0 {
		c.ECCRecoveryPause = 2_000
	}
	return nil
}

// Device is one fleet device: bus membership, thermal state, and the
// single-home container of the workloads placed on it. A workload id
// lives in exactly one device's workloads slice (its home); attach and
// detach are the only functions that move ids between homes.
type Device struct {
	id        int
	onBus     bool
	scale     int // thermal derate factor, 1 = nominal
	eccEvents int
	workloads []int // live workload ids homed here, ascending
}

// workload is one placed simulation and its fleet-side bookkeeping.
type workload struct {
	id   int
	sess *sim.Session
	m    *gpu.Machine
	dev  int // current home device

	pos event.Cycle // local-clock pacing position (RunTo target)
	acc event.Cycle // pacing remainder (fleet cycles not yet converted)

	pauseUntil event.Cycle // fleet cycle a migration/recovery pause ends
	ckpt       *gpu.Snapshot

	armed    []bool   // per device: fault block armed on this machine
	seqBases []uint64 // per device: first reserved engine seq of its block

	terminal bool
	drained  bool
	res      metrics.Result
	resErr   error
	doneAt   event.Cycle // fleet cycle the workload went terminal

	migrations int
	recoveries int
	lostCycles uint64 // local cycles rewound across migrations/recoveries

	lastCompleted  int
	lastProgressAt event.Cycle
	starving       bool
}

// Migration is one entry of the fleet's migration log.
type Migration struct {
	At         event.Cycle
	Workload   int
	From, To   int
	Cause      string // "device-loss" or "rebalance"
	LostCycles uint64 // local cycles rewound to the checkpoint
	Pause      event.Cycle
}

// WorkloadResult is one workload's outcome plus its churn history.
type WorkloadResult struct {
	ID         int
	Device     int // final home
	Result     metrics.Result
	Err        error
	DoneAt     event.Cycle
	Migrations int
	Recoveries int
	LostCycles uint64
	Drained    bool
}

// Result is one fleet run's outcome.
type Result struct {
	Plane       string // plane schedule label
	Degraded    bool   // drained below the capacity floor
	FleetCycles event.Cycle
	Events      []HealthEvent
	Migrations  []Migration
	Workloads   []WorkloadResult
	Violations  []Violation
}

// Fleet is the simulation of K devices under one fault plane. It
// implements Injectable (and therefore Manager). Drive it New →
// (optional Inject*At) → Run; Initialize and Shutdown are part of the
// Manager surface and Run calls them itself when the caller does not.
type Fleet struct {
	cfg  Config
	devs []*Device
	wls  []*workload

	plan     []Event
	planIdx  int
	injected []Event

	clock    event.Cycle
	degraded bool
	shut     bool

	initialized bool
	ran         bool

	events     []HealthEvent
	collected  int // prefix of events already drained by CollectHealthEvents
	migrations []Migration
	violations []Violation
}

// New builds an unstarted fleet from cfg.
func New(cfg Config) *Fleet { return &Fleet{cfg: cfg} }

// Initialize validates the configuration, constructs every workload's
// machine with its reserved fault-sequence blocks, places workloads
// round-robin, arms each home device's fault schedule, and takes the
// genesis checkpoints. Idempotent.
func (f *Fleet) Initialize() error {
	if f.initialized {
		return nil
	}
	if err := f.cfg.fill(); err != nil {
		return err
	}
	f.devs = make([]*Device, f.cfg.Devices)
	for i := range f.devs {
		f.devs[i] = &Device{id: i, onBus: true, scale: 1}
	}
	f.wls = make([]*workload, len(f.cfg.Workloads))
	for i, wcfg := range f.cfg.Workloads {
		w := &workload{id: i, armed: make([]bool, f.cfg.Devices), seqBases: make([]uint64, f.cfg.Devices)}
		// Reserve one engine-sequence block per device, sized by how many of
		// that device's fault events apply to this workload's policy.
		counts := make([]int, f.cfg.Devices)
		reserve := 0
		if f.cfg.DeviceFaults != nil {
			pol, err := sim.NewPolicy(wcfg.Policy)
			if err != nil {
				return fmt.Errorf("fleet: workload %d: %w", i, err)
			}
			for d := range counts {
				counts[d] = fault.CountApplicable(pol, f.cfg.DeviceFaults[d])
				reserve += counts[d]
			}
		}
		sess, err := sim.NewSessionReserving(wcfg, reserve)
		if err != nil {
			return fmt.Errorf("fleet: workload %d: %w", i, err)
		}
		w.sess, w.m = sess, sess.Machine()
		base := sess.SeqBase()
		for d := range counts {
			w.seqBases[d] = base
			base += uint64(counts[d])
		}
		w.m.Prepare()
		home := i % f.cfg.Devices
		f.attach(f.devs[home], w)
		w.dev = home
		if f.cfg.DeviceFaults != nil {
			w.armed[home] = true
			if err := fault.ArmReserved(w.m, f.cfg.DeviceFaults[home], w.seqBases[home]); err != nil {
				return fmt.Errorf("fleet: workload %d on device %d: %w", i, home, err)
			}
		}
		w.ckpt = w.m.Snapshot()
		f.wls[i] = w
	}
	f.initialized = true
	return nil
}

// Shutdown finishes any still-live workloads (diagnosed as a fleet drain)
// and marks the fleet closed. Run calls it after a normal run, where it
// is a no-op on the already-terminal workloads. Idempotent.
func (f *Fleet) Shutdown() error {
	if f.shut {
		return nil
	}
	if f.initialized {
		for _, w := range f.wls {
			if w.terminal {
				continue
			}
			w.m.Halt(metrics.ReasonFleetDrain)
			w.drained = true
			f.finish(w)
		}
	}
	f.shut = true
	return nil
}

// GetDeviceCount reports the fleet size.
func (f *Fleet) GetDeviceCount() (int, error) {
	if err := f.Initialize(); err != nil {
		return 0, err
	}
	return f.cfg.Devices, nil
}

// GetDeviceInfo reports a device's identity and current placement.
func (f *Fleet) GetDeviceInfo(device int) (DeviceInfo, error) {
	if err := f.Initialize(); err != nil {
		return DeviceInfo{}, err
	}
	if device < 0 || device >= len(f.devs) {
		return DeviceInfo{}, fmt.Errorf("fleet: device %d out of range [0,%d)", device, len(f.devs))
	}
	d := f.devs[device]
	return DeviceInfo{ID: d.id, Workloads: append([]int(nil), d.workloads...)}, nil
}

// GetDeviceHealth reports a device's instantaneous health word.
func (f *Fleet) GetDeviceHealth(device int) (DeviceHealth, error) {
	if err := f.Initialize(); err != nil {
		return DeviceHealth{}, err
	}
	if device < 0 || device >= len(f.devs) {
		return DeviceHealth{}, fmt.Errorf("fleet: device %d out of range [0,%d)", device, len(f.devs))
	}
	d := f.devs[device]
	return DeviceHealth{OnBus: d.onBus, ThermalScale: d.scale, ECCEvents: d.eccEvents}, nil
}

// CollectHealthEvents drains the health events recorded since the last
// collection.
func (f *Fleet) CollectHealthEvents() []HealthEvent {
	out := append([]HealthEvent(nil), f.events[f.collected:]...)
	f.collected = len(f.events)
	return out
}

// InjectXIDHealthEventAt schedules an XID on a device before the run.
func (f *Fleet) InjectXIDHealthEventAt(device int, xid uint64, at event.Cycle) error {
	switch xid {
	case XIDFellOffBus:
		return f.inject(Event{At: at, Kind: DeviceLoss, Device: device})
	case XIDDoubleBitECC:
		return f.inject(Event{At: at, Kind: ECCError, Device: device, Pages: 1})
	}
	return fmt.Errorf("fleet: no injection for XID %d", xid)
}

// InjectThermalHealthEventAt schedules a clock derate (scale 1 clears).
func (f *Fleet) InjectThermalHealthEventAt(device int, scale int, at event.Cycle) error {
	return f.inject(Event{At: at, Kind: ThermalThrottle, Device: device, Scale: scale})
}

// InjectMemoryHealthEventAt schedules an uncorrectable ECC fault over a
// page range.
func (f *Fleet) InjectMemoryHealthEventAt(device int, page uint64, pages int, at event.Cycle) error {
	return f.inject(Event{At: at, Kind: ECCError, Device: device, Page: page, Pages: pages})
}

func (f *Fleet) inject(e Event) error {
	if f.ran {
		return fmt.Errorf("fleet: injection after the run started")
	}
	f.injected = append(f.injected, e)
	return nil
}

// Run drives the fleet to completion: paced slices of every live workload
// between plane-event/checkpoint boundaries, health events applied in
// schedule order, checkpoints refreshed, the SLO scanned. It returns the
// assembled Result; SLO violations are reported in it, not as an error.
// Run may be called once.
func (f *Fleet) Run() (*Result, error) {
	if f.ran {
		return nil, fmt.Errorf("fleet: Run called twice")
	}
	if err := f.Initialize(); err != nil {
		return nil, err
	}
	f.ran = true
	// Merge pre-run injections into the plane, keeping schedule order
	// stable for equal timestamps, and validate the merged plan.
	merged := f.cfg.Plane
	merged.Events = append(append([]Event(nil), merged.Events...), f.injected...)
	sort.SliceStable(merged.Events, func(i, j int) bool { return merged.Events[i].At < merged.Events[j].At })
	if err := merged.Validate(f.cfg.Devices); err != nil {
		return nil, err
	}
	f.plan = merged.Events

	for f.clock < f.cfg.FleetBudget && f.liveCount() > 0 && !f.degraded {
		next := f.nextBoundary()
		f.advanceAll(next - f.clock)
		f.clock = next
		f.applyPlaneEvents()
		if !f.degraded && f.clock%f.cfg.CheckpointEvery == 0 {
			f.refreshCheckpoints()
		}
		f.sloScan()
	}
	// Fleet budget exhausted with live workloads: finish them diagnosed.
	for _, w := range f.wls {
		if !w.terminal {
			w.m.Halt(metrics.ReasonFleetBudget)
			f.finish(w)
		}
	}
	if err := f.Shutdown(); err != nil {
		return nil, err
	}
	res := f.result()
	// Every workload is terminal and its checkpoints die with the fleet:
	// recycle the device machines' buffers for the next fleet in the sweep.
	for _, w := range f.wls {
		w.m.ReleaseBuffers()
	}
	return res, nil
}

// result assembles the final Result and runs the end-of-run SLO checks.
func (f *Fleet) result() *Result {
	deadline := f.cfg.SLO.CompletionDeadline
	if deadline == 0 {
		deadline = f.cfg.FleetBudget
	}
	r := &Result{
		Plane:       f.cfg.Plane.label(),
		Degraded:    f.degraded,
		FleetCycles: f.clock,
		Events:      f.events,
		Migrations:  f.migrations,
		Violations:  f.violations,
	}
	for _, w := range f.wls {
		r.Workloads = append(r.Workloads, WorkloadResult{
			ID: w.id, Device: w.dev, Result: w.res, Err: w.resErr,
			DoneAt: w.doneAt, Migrations: w.migrations, Recoveries: w.recoveries,
			LostCycles: w.lostCycles, Drained: w.drained,
		})
		r.Violations = append(r.Violations, f.cfg.SLO.check(w, deadline)...)
	}
	return r
}

func (f *Fleet) liveCount() int {
	n := 0
	for _, w := range f.wls {
		if !w.terminal {
			n++
		}
	}
	return n
}

func (f *Fleet) onBusCount() int {
	n := 0
	for _, d := range f.devs {
		if d.onBus {
			n++
		}
	}
	return n
}

// nextBoundary picks the next fleet cycle the loop must stop at: the next
// plane event, the next checkpoint tick, or the budget.
func (f *Fleet) nextBoundary() event.Cycle {
	next := f.cfg.FleetBudget
	if f.planIdx < len(f.plan) && f.plan[f.planIdx].At < next {
		next = f.plan[f.planIdx].At
	}
	if tick := (f.clock/f.cfg.CheckpointEvery + 1) * f.cfg.CheckpointEvery; tick < next {
		next = tick
	}
	return next
}

// advanceAll paces every live workload through one fleet-cycle slice. A
// device's local clocks advance at fleet rate divided by (resident
// workloads × thermal derate); the integer remainder carries in w.acc so
// no cycles are lost to rounding. Workloads advance in id order — the
// fleet loop runs on one goroutine and each machine keeps its own
// single-goroutine engine, so the interleaving is deterministic.
func (f *Fleet) advanceAll(slice event.Cycle) {
	for _, w := range f.wls {
		if w.terminal {
			continue
		}
		eff := slice
		if w.pauseUntil > f.clock {
			skip := w.pauseUntil - f.clock
			if skip > eff {
				skip = eff
			}
			eff -= skip
		}
		if eff == 0 {
			continue
		}
		d := f.devs[w.dev]
		div := event.Cycle(len(d.workloads) * d.scale)
		if div < 1 {
			div = 1
		}
		w.acc += eff
		adv := w.acc / div
		w.acc -= adv * div
		if adv == 0 {
			continue
		}
		w.pos += adv
		max := w.m.CycleLimit()
		if max != 0 && w.pos > max {
			w.pos = max
		}
		w.m.RunTo(w.pos)
		if w.m.Done() || w.m.Deadlocked() || w.m.Engine().BudgetExhausted() ||
			w.m.Engine().Pending() == 0 ||
			(max != 0 && w.pos == max) {
			f.finish(w)
		}
	}
}

// finish tears one workload down: classify and account the run, record
// when it ended on the fleet clock, and vacate its home.
func (f *Fleet) finish(w *workload) {
	w.res, w.resErr = w.sess.Finish()
	w.terminal = true
	w.doneAt = f.clock
	f.detach(f.devs[w.dev], w)
}

// applyPlaneEvents fires every plane event due at the current fleet
// cycle, in schedule order.
func (f *Fleet) applyPlaneEvents() {
	for f.planIdx < len(f.plan) && f.plan[f.planIdx].At <= f.clock {
		e := f.plan[f.planIdx]
		f.planIdx++
		if f.degraded {
			// The fleet already drained; remaining events are moot.
			continue
		}
		switch e.Kind {
		case DeviceLoss:
			f.loseDevice(e)
		case DeviceRestore:
			f.restoreDevice(e)
		case ThermalThrottle:
			f.throttleDevice(e)
		case ECCError:
			f.eccError(e)
		}
	}
}

// loseDevice takes a device off the bus: migrate its live workloads to
// survivors, or — below the capacity floor — drain the whole fleet
// cleanly.
func (f *Fleet) loseDevice(e Event) {
	d := f.devs[e.Device]
	d.onBus = false
	f.note(e, XIDFellOffBus, fmt.Sprintf("device %d fell off the bus (%d workloads resident)", d.id, len(d.workloads)))
	if f.onBusCount() < f.cfg.MinDevices {
		f.drain(e)
		return
	}
	victims := append([]int(nil), d.workloads...)
	for _, id := range victims {
		f.migrate(f.wls[id], f.pickTarget(d.id), "device-loss")
	}
}

// drain stops every live workload with a structured fleet-drain
// diagnosis: device churn left fewer than MinDevices on the bus, and a
// clean diagnosed stop beats a wedged fleet.
func (f *Fleet) drain(e Event) {
	f.degraded = true
	f.note(e, XIDNone, fmt.Sprintf("fleet below survivable floor (%d on bus < %d): draining %d live workloads",
		f.onBusCount(), f.cfg.MinDevices, f.liveCount()))
	for _, w := range f.wls {
		if w.terminal {
			continue
		}
		w.m.Halt(metrics.ReasonFleetDrain)
		w.drained = true
		f.finish(w)
	}
}

// restoreDevice brings a lost device back at nominal frequency and
// rebalances one workload onto it from the most-loaded device.
func (f *Fleet) restoreDevice(e Event) {
	d := f.devs[e.Device]
	d.onBus = true
	d.scale = 1
	f.note(e, XIDNone, fmt.Sprintf("device %d restored to the bus", d.id))
	var src *Device
	for _, c := range f.devs {
		if c.onBus && len(c.workloads) >= 2 && (src == nil || len(c.workloads) > len(src.workloads)) {
			src = c
		}
	}
	if src != nil {
		f.migrate(f.wls[src.workloads[len(src.workloads)-1]], d.id, "rebalance")
	}
}

// throttleDevice derates a device's clocks: resident workloads pace
// slower from the next slice, and monitor-family policies stretch their
// CP firmware cadence by the same factor.
func (f *Fleet) throttleDevice(e Event) {
	d := f.devs[e.Device]
	d.scale = e.Scale
	detail := fmt.Sprintf("device %d thermal derate x%d", d.id, d.scale)
	if d.scale == 1 {
		detail = fmt.Sprintf("device %d thermal throttle cleared", d.id)
	}
	f.note(e, XIDNone, detail)
	for _, id := range d.workloads {
		f.applyThermal(f.wls[id], d.scale)
	}
}

// eccError poisons the faulted page range on every resident workload,
// then retires the range by rewinding each to its last checkpoint — the
// corrupted values are never executed on, and the rewind re-executes from
// the pre-fault image.
func (f *Fleet) eccError(e Event) {
	d := f.devs[e.Device]
	d.eccEvents++
	seed := f.cfg.Plane.Seed ^ e.Page ^ uint64(e.At)<<16 ^ 0xecc0
	resident := append([]int(nil), d.workloads...)
	words := 0
	for _, id := range resident {
		w := f.wls[id]
		words += w.m.Mem().CorruptRange(e.Page, e.Pages, seed)
		f.rewind(w, d)
		w.pauseUntil = f.clock + f.cfg.ECCRecoveryPause
		w.recoveries++
	}
	f.note(e, XIDDoubleBitECC, fmt.Sprintf("device %d uncorrectable ECC: pages [%d,%d), %d words poisoned, %d workloads rewound",
		d.id, e.Page, e.Page+uint64(e.Pages), words, len(resident)))
}

// rewind restores a workload to its last checkpoint in place (same
// device), charging the lost local cycles and re-imposing the device's
// thermal state on the restored machine.
func (f *Fleet) rewind(w *workload, d *Device) {
	lost := w.pos - w.ckpt.Now()
	w.m.Restore(w.ckpt)
	w.pos = w.ckpt.Now()
	w.acc = 0
	w.lostCycles += uint64(lost)
	f.applyThermal(w, d.scale)
}

// migrate transplants a live workload onto the target device: restore the
// last checkpoint (the lost device's post-checkpoint state is gone with
// it), re-home the workload, re-impose the target's thermal state, arm
// the not-yet-fired tail of the target's device-fault schedule on its
// reserved sequence block, and immediately take a fresh checkpoint so
// later rewinds replay the same calendar. The transplant costs a pause
// proportional to the moved state.
func (f *Fleet) migrate(w *workload, target int, cause string) {
	from := w.dev
	lost := w.pos - w.ckpt.Now()
	w.m.Restore(w.ckpt)
	w.pos = w.ckpt.Now()
	w.acc = 0
	w.lostCycles += uint64(lost)
	f.detach(f.devs[from], w)
	f.attach(f.devs[target], w)
	w.dev = target
	t := f.devs[target]
	f.applyThermal(w, t.scale)
	if f.cfg.DeviceFaults != nil && !w.armed[target] {
		w.armed[target] = true
		// Validation already passed at genesis arming; the machine config is
		// unchanged, so an error here is unreachable.
		if err := fault.ArmReservedAfter(w.m, f.cfg.DeviceFaults[target], w.seqBases[target], w.m.Engine().Now()); err != nil {
			panic(fmt.Sprintf("fleet: arming device %d tail on workload %d: %v", target, w.id, err))
		}
	}
	w.ckpt = w.m.Snapshot()
	pause := f.cfg.MigrationPauseBase + event.Cycle(w.ckpt.Bytes()/128)
	w.pauseUntil = f.clock + pause
	w.migrations++
	f.migrations = append(f.migrations, Migration{
		At: f.clock, Workload: w.id, From: from, To: target,
		Cause: cause, LostCycles: uint64(lost), Pause: pause,
	})
}

// pickTarget chooses the least-loaded on-bus device other than exclude
// (ties to the lowest id).
func (f *Fleet) pickTarget(exclude int) int {
	best := -1
	for _, d := range f.devs {
		if !d.onBus || d.id == exclude {
			continue
		}
		if best == -1 || len(d.workloads) < len(f.devs[best].workloads) {
			best = d.id
		}
	}
	return best
}

// applyThermal imposes a device derate on a workload's command processor.
// Policies without monitor hardware have no CP; their derate is purely
// the pacing slowdown.
func (f *Fleet) applyThermal(w *workload, scale int) {
	if hw, ok := w.m.Policy().(interface{ CP() *cp.Processor }); ok {
		hw.CP().SetCadenceScale(scale)
	}
}

// refreshCheckpoints re-snapshots live workloads at the checkpoint
// cadence. Paused workloads are skipped — their state is unchanged since
// the snapshot the pause came from.
func (f *Fleet) refreshCheckpoints() {
	for _, w := range f.wls {
		if w.terminal || w.pauseUntil > f.clock {
			continue
		}
		w.ckpt = w.m.Snapshot()
	}
}

// sloScan runs the online starvation detector at each boundary.
func (f *Fleet) sloScan() {
	win := f.cfg.SLO.StallWindow
	if win == 0 {
		return
	}
	for _, w := range f.wls {
		if w.terminal || w.starving {
			continue
		}
		if c := w.m.CompletedWGs(); c > w.lastCompleted {
			w.lastCompleted = c
			w.lastProgressAt = f.clock
			continue
		}
		ref := w.lastProgressAt
		if w.pauseUntil > ref {
			ref = w.pauseUntil
		}
		if ref >= f.clock {
			// A pause is still running (or just ended at this boundary); the
			// stall clock restarts after it.
			continue
		}
		if f.clock-ref > win && fault.ProvidesIFP(f.cfg.Workloads[w.id].Policy) {
			w.starving = true
			f.violations = append(f.violations, Violation{
				Workload: w.id, Benchmark: f.cfg.Workloads[w.id].Benchmark, Policy: f.cfg.Workloads[w.id].Policy,
				Kind: ViolationStarvation,
				Detail: fmt.Sprintf("no WG completed for %d fleet cycles (window %d, %d/%d done)",
					f.clock-ref, win, w.lastCompleted, len(w.m.WGs())),
			})
		}
	}
}

// note appends one health event to the fleet log.
func (f *Fleet) note(e Event, xid uint64, detail string) {
	f.events = append(f.events, HealthEvent{At: f.clock, Device: e.Device, XID: xid, Kind: e.Kind, Detail: detail})
}

// attach homes a live workload on a device, keeping ids ascending. It and
// detach are the only mutators of Device.workloads (the single-home
// invariant awglint's waiterhome analyzer enforces for this package).
func (f *Fleet) attach(d *Device, w *workload) {
	i := sort.SearchInts(d.workloads, w.id)
	d.workloads = append(d.workloads, 0)
	copy(d.workloads[i+1:], d.workloads[i:])
	d.workloads[i] = w.id
}

// detach removes a workload from its home device.
func (f *Fleet) detach(d *Device, w *workload) {
	i := sort.SearchInts(d.workloads, w.id)
	if i < len(d.workloads) && d.workloads[i] == w.id {
		d.workloads = append(d.workloads[:i], d.workloads[i+1:]...)
	}
}
