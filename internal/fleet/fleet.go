// Package fleet scales the single-machine model out to a fleet: K
// gpu.Machine devices multiplexing workloads under one deterministic
// loop, churned by a fleet-level fault plane of seeded XID-style health
// events — device-fell-off-bus, thermal throttle, uncorrectable ECC. Run
// is the package's one entry point.
//
// The layer's point is the paper's invariant at datacenter scale: a
// policy that guarantees independent forward progress of work-groups
// should survive device churn — mid-kernel work-groups migrate off a lost
// device (rewound to their last checkpoint and re-homed) and the run
// still completes — while Baseline-style busy-wait policies hang and must
// be *diagnosed*, not merely time out. The SLO checker in slo.go promotes
// fault.CheckOutcome to that fleet contract.
//
// A checkpoint is a replay point, not a copy of the machine: a run is a
// pure function of its sim.Config plus the few changes the fleet makes
// between slices (device faults armed, thermal derates), so a rewind
// rebuilds the machine from the Config, re-applies those changes and
// re-runs it to the checkpoint cycle, bit-identically.
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

const (
	// migrationPauseBase is the fixed fleet-cycle cost of a migration; the
	// transplanted state adds gpu.Machine.StateBytes()/128 on top.
	migrationPauseBase event.Cycle = 2_000
	// eccRecoveryPause is the fleet-cycle cost of an ECC retire-and-rewind.
	eccRecoveryPause event.Cycle = 2_000
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
	// Their Faults and Inject fields must be nil — device-coupled fault
	// schedules arrive through DeviceFaults instead.
	Workloads []sim.Config

	// Plane is the fleet-level health-event schedule, validated against
	// Devices before any machine is built.
	Plane Schedule

	// DeviceFaults optionally couples a machine-level fault schedule (CU
	// loss, monitor degradation, CP jitter) to each device: a workload
	// experiences the schedule of whichever device hosts it — its home's
	// from launch, a migration target's from the checkpoint it resumed
	// at. Every machine arms them at construction, in device order, so a
	// device's faults take the same calendar positions whenever the
	// workload reaches it. Nil, or exactly Devices entries, each validated
	// against every workload's machine.
	DeviceFaults []fault.Schedule

	// CheckpointEvery is the fleet-cycle cadence of checkpoint refreshes —
	// the bound on work lost to a migration or ECC rewind. A refresh copies
	// nothing; a rewind re-runs its workload from launch to the
	// checkpoint. Default 50_000.
	CheckpointEvery event.Cycle
	// FleetBudget caps the run in fleet cycles; live workloads at the cap
	// finish diagnosed with metrics.ReasonFleetBudget. Default 100_000_000.
	FleetBudget event.Cycle

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
	for i, w := range c.Workloads {
		if w.Faults != nil {
			return fmt.Errorf("fleet: workload %d carries its own fault schedule; use DeviceFaults", i)
		}
		if w.Inject != nil {
			// Device faults are armed after sim.NewSession, past an
			// injected kernel's launch event, where a Faults schedule is
			// armed before it; the two would not match.
			return fmt.Errorf("fleet: workload %d injects a second kernel; fleet workloads run one", i)
		}
	}
	if c.DeviceFaults != nil && len(c.DeviceFaults) != c.Devices {
		return fmt.Errorf("fleet: %d device fault schedules for %d devices", len(c.DeviceFaults), c.Devices)
	}
	if err := c.Plane.Validate(c.Devices); err != nil {
		return err
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
	return nil
}

// Device is one fleet device: bus membership, thermal state, and the
// single-home container of the workloads placed on it. A workload id
// lives in exactly one device's workloads slice (its home); attach and
// detach are the only functions that move ids between homes.
type Device struct {
	id        int
	onBus     bool
	scale     int   // thermal derate factor, 1 = nominal
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
	ckpt       checkpoint

	// thermal logs every derate imposed on the machine, re-impositions
	// after a rewind included; a rebuild replays a checkpoint's prefix.
	thermal []derate
	// after holds, per device, the cycle after which that device's faults
	// apply: 0 for the home, the resume checkpoint for a migration target,
	// event.Never for a device the workload has not reached.
	after []event.Cycle

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

// mark is a point in a workload's run a rebuild re-runs to: the pacing
// position, the target of the workload's last RunTo. A live machine has
// fired every event up to its position and none after it, so a rebuild
// run to the position replays the same events however densely they fall
// before it. Position 0 is the machine no slice has run: its cycle-0
// events have not fired.
type mark struct{ at event.Cycle }

// runTo brings a rebuilt machine to the mark.
func (k mark) runTo(m *gpu.Machine) {
	if k.at > 0 {
		m.RunTo(k.at)
	}
}

// checkpoint is a replay point: a mark plus how many thermal log entries
// precede it.
type checkpoint struct {
	mark
	thermal int
}

// derate is one thermal log entry: the cadence scale imposed at a mark.
type derate struct {
	mark
	scale int
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

// fleet is one run's state: K devices under one fault plane.
type fleet struct {
	cfg  Config
	devs []*Device
	wls  []*workload

	planIdx int // next Plane event to apply

	clock    event.Cycle
	degraded bool

	events     []HealthEvent
	migrations []Migration
	violations []Violation
}

// Run validates cfg, builds every workload's machine, and drives the fleet
// to completion: paced slices of every live workload between
// plane-event/checkpoint boundaries, health events applied in schedule
// order, checkpoints refreshed, the SLO scanned. SLO violations are
// reported in the Result, not as an error; an invalid cfg is the error.
func Run(cfg Config) (*Result, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
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
	res := f.result()
	// Every workload is terminal: recycle the device machines' buffers for
	// the next fleet in the sweep.
	for _, w := range f.wls {
		w.sess.Release()
	}
	return res, nil
}

// newFleet validates cfg, places workloads round-robin, builds every
// workload's machine with its home device's faults armed (validating
// every device's schedule against it), and takes the genesis checkpoints.
func newFleet(cfg Config) (*fleet, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, devs: make([]*Device, cfg.Devices), wls: make([]*workload, len(cfg.Workloads))}
	for i := range f.devs {
		f.devs[i] = &Device{id: i, onBus: true, scale: 1}
	}
	for i := range cfg.Workloads {
		home := i % cfg.Devices
		w := &workload{id: i, dev: home}
		if cfg.DeviceFaults != nil {
			w.after = make([]event.Cycle, cfg.Devices)
			for d := range w.after {
				w.after[d] = event.Never
			}
			w.after[home] = 0
		}
		if err := f.build(w); err != nil {
			return nil, fmt.Errorf("fleet: workload %d: %w", i, err)
		}
		f.attach(f.devs[home], w)
		w.ckpt = w.checkpoint()
		f.wls[i] = w
	}
	return f, nil
}

// build constructs w's machine from its Config, arms each device's faults
// after the cycle w reached it (validating every device's schedule,
// reached or not), and prepares the run.
func (f *fleet) build(w *workload) error {
	sess, err := sim.NewSession(f.cfg.Workloads[w.id])
	if err != nil {
		return err
	}
	for d, after := range w.after {
		if err := fault.Arm(sess.Machine(), f.cfg.DeviceFaults[d], after); err != nil {
			return fmt.Errorf("device %d faults: %w", d, err)
		}
	}
	sess.Machine().Prepare()
	w.sess, w.m = sess, sess.Machine()
	return nil
}

// rewind returns w to its checkpoint by re-running: it releases the
// current session unsettled (only a workload's final session is
// finished), builds a fresh one, replays the checkpoint's prefix of the
// thermal log, and runs to the checkpoint. It charges and returns the
// local cycles lost; the caller re-imposes the device's derate.
func (f *fleet) rewind(w *workload) uint64 {
	lost := uint64(w.pos - w.ckpt.at)
	w.sess.Release()
	if err := f.build(w); err != nil {
		// newFleet built this workload from the same Config and schedules.
		panic(fmt.Sprintf("fleet: rebuilding workload %d: %v", w.id, err))
	}
	w.thermal = w.thermal[:w.ckpt.thermal]
	for _, t := range w.thermal {
		t.runTo(w.m)
		setCadenceScale(w.m, t.scale)
	}
	w.ckpt.runTo(w.m)
	w.pos, w.acc = w.ckpt.at, 0
	w.lostCycles += lost
	return lost
}

// checkpoint marks w's current point as its replay point.
func (w *workload) checkpoint() checkpoint {
	return checkpoint{mark{w.pos}, len(w.thermal)}
}

// result assembles the final Result and runs the end-of-run SLO checks.
func (f *fleet) result() *Result {
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

func (f *fleet) liveCount() int {
	n := 0
	for _, w := range f.wls {
		if !w.terminal {
			n++
		}
	}
	return n
}

func (f *fleet) onBusCount() int {
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
func (f *fleet) nextBoundary() event.Cycle {
	next := f.cfg.FleetBudget
	if plan := f.cfg.Plane.Events; f.planIdx < len(plan) && plan[f.planIdx].At < next {
		next = plan[f.planIdx].At
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
func (f *fleet) advanceAll(slice event.Cycle) {
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
func (f *fleet) finish(w *workload) {
	w.res, w.resErr = w.sess.Finish()
	w.terminal = true
	w.doneAt = f.clock
	f.detach(f.devs[w.dev], w)
}

// applyPlaneEvents fires every plane event due at the current fleet
// cycle, in schedule order.
func (f *fleet) applyPlaneEvents() {
	plan := f.cfg.Plane.Events
	for f.planIdx < len(plan) && plan[f.planIdx].At <= f.clock {
		e := plan[f.planIdx]
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
func (f *fleet) loseDevice(e Event) {
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
func (f *fleet) drain(e Event) {
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
func (f *fleet) restoreDevice(e Event) {
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
func (f *fleet) throttleDevice(e Event) {
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
// corrupted values are never executed on: the rewind rebuilds the machine
// and re-executes to the checkpoint.
func (f *fleet) eccError(e Event) {
	d := f.devs[e.Device]
	seed := f.cfg.Plane.Seed ^ e.Page ^ uint64(e.At)<<16 ^ 0xecc0
	resident := append([]int(nil), d.workloads...)
	words := 0
	for _, id := range resident {
		w := f.wls[id]
		words += w.m.Mem().CorruptRange(e.Page, e.Pages, seed)
		f.rewind(w)
		f.applyThermal(w, d.scale)
		w.pauseUntil = f.clock + eccRecoveryPause
		w.recoveries++
	}
	f.note(e, XIDDoubleBitECC, fmt.Sprintf("device %d uncorrectable ECC: pages [%d,%d), %d words poisoned, %d workloads rewound",
		d.id, e.Page, e.Page+uint64(e.Pages), words, len(resident)))
}

// migrate moves a live workload onto the target device: it rewinds to
// the last checkpoint (the lost device's post-checkpoint state is gone
// with it) with the target's device faults armed from that checkpoint on,
// if the workload has not been there before, re-homes the workload,
// re-imposes the target's thermal state, and makes the resume point its
// new checkpoint. The transplant costs a pause proportional to the moved
// state.
func (f *fleet) migrate(w *workload, target int, cause string) {
	from := w.dev
	if w.after != nil && w.after[target] == event.Never {
		w.after[target] = w.ckpt.at
	}
	lost := f.rewind(w)
	f.detach(f.devs[from], w)
	f.attach(f.devs[target], w)
	w.dev = target
	f.applyThermal(w, f.devs[target].scale)
	w.ckpt = w.checkpoint()
	pause := migrationPauseBase + event.Cycle(w.m.StateBytes()/128)
	w.pauseUntil = f.clock + pause
	w.migrations++
	f.migrations = append(f.migrations, Migration{
		At: f.clock, Workload: w.id, From: from, To: target,
		Cause: cause, LostCycles: lost, Pause: pause,
	})
}

// pickTarget chooses the least-loaded on-bus device other than exclude
// (ties to the lowest id).
func (f *fleet) pickTarget(exclude int) int {
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

// applyThermal imposes a device derate on a workload's machine and logs
// it for replay. A scale-1 re-imposition is logged too: it clears a
// JitterCP skew the CP may carry.
func (f *fleet) applyThermal(w *workload, scale int) {
	w.thermal = append(w.thermal, derate{mark{w.pos}, scale})
	setCadenceScale(w.m, scale)
}

// setCadenceScale derates a machine's command processor. Policies without
// monitor hardware have no CP; their derate is purely the pacing slowdown.
func setCadenceScale(m *gpu.Machine, scale int) {
	if hw, ok := m.Policy().(interface{ CP() *cp.Processor }); ok {
		hw.CP().SetCadenceScale(scale)
	}
}

// refreshCheckpoints moves live workloads' replay points forward at the
// checkpoint cadence. Paused workloads are skipped — their state is
// unchanged since the checkpoint the pause came from.
func (f *fleet) refreshCheckpoints() {
	for _, w := range f.wls {
		if w.terminal || w.pauseUntil > f.clock {
			continue
		}
		w.ckpt = w.checkpoint()
	}
}

// sloScan runs the online starvation detector at each boundary.
func (f *fleet) sloScan() {
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
func (f *fleet) note(e Event, xid uint64, detail string) {
	f.events = append(f.events, HealthEvent{At: f.clock, Device: e.Device, XID: xid, Kind: e.Kind, Detail: detail})
}

// attach homes a live workload on a device, keeping ids ascending. It and
// detach are the only mutators of Device.workloads (the single-home
// invariant awglint's waiterhome analyzer enforces for this package).
func (f *fleet) attach(d *Device, w *workload) {
	i := sort.SearchInts(d.workloads, w.id)
	d.workloads = append(d.workloads, 0)
	copy(d.workloads[i+1:], d.workloads[i:])
	d.workloads[i] = w.id
}

// detach removes a workload from its home device.
func (f *fleet) detach(d *Device, w *workload) {
	i := sort.SearchInts(d.workloads, w.id)
	if i < len(d.workloads) && d.workloads[i] == w.id {
		d.workloads = append(d.workloads[:i], d.workloads[i+1:]...)
	}
}
