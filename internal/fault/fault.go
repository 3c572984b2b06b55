// Package fault implements the deterministic fault-injection subsystem of
// the robustness evaluation: seed-driven schedules of mid-run hardware
// faults — CU loss/restore cycles, SyncMon capacity degradation (forcing
// Monitor-Log spills), and CP firmware-cadence jitter — armed onto a
// machine's event calendar before the kernel launches (Arm).
//
// Schedules are data, not behaviour: the same (schedule, config, seed)
// triple always replays bit-identically, because every fault fires as an
// ordinary engine event at a fixed cycle. The IFP invariant the paper
// claims (Section III) is then checkable mechanically: IFP-providing
// policies must complete with verified results under *every* schedule,
// while Baseline/Sleep may deadlock but must be diagnosed, never hung —
// see invariant.go.
package fault

import (
	"fmt"
	"sort"

	"awgsim/internal/cp"
	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/hashutil"
	"awgsim/internal/syncmon"
)

// Op enumerates the injectable fault kinds.
type Op int

const (
	// CULoss preempts a CU mid-run (context-saves its resident WGs and
	// removes it from placement), as when another process's kernel claims
	// the CU for a scheduling time slice.
	CULoss Op = iota
	// CURestore returns a previously lost CU to placement.
	CURestore
	// DegradeSyncMon shrinks the monitor's condition-cache ways and
	// waiting-WG list mid-run, displacing entries into the Monitor Log
	// (and, past the log, into unchecked Mesa-style wakes).
	DegradeSyncMon
	// JitterCP stretches the Command Processor's drain/check cadence by a
	// deterministic pseudo-random skew, modelling busy or descheduled
	// firmware.
	JitterCP
)

func (o Op) String() string {
	switch o {
	case CULoss:
		return "cu-loss"
	case CURestore:
		return "cu-restore"
	case DegradeSyncMon:
		return "degrade-syncmon"
	case JitterCP:
		return "jitter-cp"
	default:
		return "?"
	}
}

// Event is one scheduled fault. Only the fields its Op reads are
// meaningful: CU for CULoss/CURestore; Ways and WaitList for
// DegradeSyncMon; Seed and MaxSkew for JitterCP.
type Event struct {
	At event.Cycle
	Op Op

	CU int // CULoss / CURestore target

	Ways     int // DegradeSyncMon: new condition-cache ways per set (>= 1)
	WaitList int // DegradeSyncMon: new waiting-WG list capacity (>= 0)

	Seed    uint64      // JitterCP: skew stream seed
	MaxSkew event.Cycle // JitterCP: max added cadence skew, cycles
}

// Schedule is a named, time-ordered fault sequence. Seed records the
// generator seed for seed-addressable schedules (Random), zero for
// hand-written ones; error paths carry it so a failing sweep cell is
// reproducible from the message alone.
type Schedule struct {
	Name   string
	Seed   uint64
	Events []Event
}

// String renders the schedule compactly for logs and test names.
func (s Schedule) String() string {
	return fmt.Sprintf("%s(%d events)", s.label(), len(s.Events))
}

// label names the schedule in error strings, appending the generator seed
// when one is recorded: regenerate the offending schedule with
// Random(seed, ...) straight from the message.
func (s Schedule) label() string {
	if s.Seed == 0 {
		return s.Name
	}
	return fmt.Sprintf("%s[seed=%d]", s.Name, s.Seed)
}

// Validate checks a schedule against a machine with numCUs compute units:
// CU indices must be in range, a CU may only be lost while enabled and
// restored while lost, at least one CU must remain enabled after every
// event, degrade geometries must be sane, and events must be time-ordered
// at positive cycles: Arm applies only faults strictly after its after
// cycle, which is 0 for a schedule applying from launch.
func (s Schedule) Validate(numCUs int) error {
	if numCUs <= 0 {
		return fmt.Errorf("fault: %d CUs", numCUs)
	}
	enabled := numCUs
	lost := make(map[int]bool)
	var prev event.Cycle
	for i, e := range s.Events {
		if e.At == 0 {
			return fmt.Errorf("fault: %s event %d: at cycle 0; faults must land after launch", s.label(), i)
		}
		if e.At < prev {
			return fmt.Errorf("fault: %s event %d at cycle %d before predecessor at %d",
				s.label(), i, e.At, prev)
		}
		prev = e.At
		switch e.Op {
		case CULoss:
			if e.CU < 0 || e.CU >= numCUs {
				return fmt.Errorf("fault: %s event %d: CU %d out of range [0,%d)", s.label(), i, e.CU, numCUs)
			}
			if lost[e.CU] {
				return fmt.Errorf("fault: %s event %d: CU %d lost twice", s.label(), i, e.CU)
			}
			if enabled == 1 {
				return fmt.Errorf("fault: %s event %d: losing CU %d leaves no CU enabled", s.label(), i, e.CU)
			}
			lost[e.CU] = true
			enabled--
		case CURestore:
			if e.CU < 0 || e.CU >= numCUs {
				return fmt.Errorf("fault: %s event %d: CU %d out of range [0,%d)", s.label(), i, e.CU, numCUs)
			}
			if !lost[e.CU] {
				return fmt.Errorf("fault: %s event %d: restoring CU %d that is not lost", s.label(), i, e.CU)
			}
			delete(lost, e.CU)
			enabled++
		case DegradeSyncMon:
			if e.Ways < 1 || e.WaitList < 0 {
				return fmt.Errorf("fault: %s event %d: degrade to %d ways / %d waiters", s.label(), i, e.Ways, e.WaitList)
			}
		case JitterCP:
			// Any seed/skew is valid; cp.Processor clamps cadence >= 1.
		default:
			return fmt.Errorf("fault: %s event %d: unknown op %d", s.label(), i, e.Op)
		}
	}
	return nil
}

// monitorHardware is the structural interface the monitor-family policies
// satisfy; DegradeSyncMon and JitterCP reach the hardware through it.
// Policies without monitor hardware (Baseline, Sleep, Timeout) simply
// don't implement it, and those faults become no-ops — there is nothing
// to degrade.
type monitorHardware interface {
	SyncMon() *syncmon.SyncMon
	CP() *cp.Processor
}

// Arm validates the whole of sched against m and schedules each fault that
// lies strictly after the given cycle as an engine event. Call between
// machine construction and Prepare. A run armed with its own schedule
// passes 0; a fleet workload arms each device it has visited with the
// cycle it arrived there, so every fault takes the calendar position a
// single construction-time arm gives it.
func Arm(m *gpu.Machine, sched Schedule, after event.Cycle) error {
	if err := sched.Validate(m.Config().NumCUs); err != nil {
		return err
	}
	hw, _ := m.Policy().(monitorHardware)
	for i := range sched.Events {
		e := &sched.Events[i]
		if e.At <= after {
			continue
		}
		if e.Op == CULoss || e.Op == CURestore {
			m.ScheduleCU(e.At, gpu.CUID(e.CU), e.Op == CURestore)
		} else if hw != nil {
			t := m.Engine().NewTask(runMonitorFault)
			t.Env[0] = hw
			t.Env[1] = e
			m.Engine().AtTask(e.At, t)
		}
	}
	return nil
}

// runMonitorFault applies the monitor fault in Env[1] to the monitor
// hardware in Env[0].
func runMonitorFault(t *event.Task) {
	hw, e := t.Env[0].(monitorHardware), t.Env[1].(*Event)
	if e.Op == DegradeSyncMon {
		hw.SyncMon().Degrade(e.Ways, e.WaitList)
		return
	}
	hw.CP().SkewCadence(e.Seed, e.MaxSkew)
}

// Scripted returns the canonical hand-written schedules, scaled to a
// machine with numCUs compute units and a fault window starting around
// base cycles (faults land after the kernel has built up waiting state).
func Scripted(numCUs int, base event.Cycle) []Schedule {
	if numCUs < 2 {
		// Single-CU machines can't lose a CU; only capacity faults apply.
		return []Schedule{
			{Name: "squeeze", Events: []Event{
				{At: base, Op: DegradeSyncMon, Ways: 1, WaitList: 8},
			}},
		}
	}
	last := numCUs - 1
	flap := Schedule{Name: "flap"}
	// One CU repeatedly lost and restored: the oversubscribed experiment
	// run in a loop.
	for i := 0; i < 4; i++ {
		at := base + event.Cycle(i)*2*base
		flap.Events = append(flap.Events,
			Event{At: at, Op: CULoss, CU: last},
			Event{At: at + base, Op: CURestore, CU: last},
		)
	}
	rolling := Schedule{Name: "rolling"}
	// A loss wave rolls across the CUs, each restored before the next two
	// go down — at most two CUs are ever missing.
	for i := 0; i < numCUs; i++ {
		at := base + event.Cycle(i)*base
		rolling.Events = append(rolling.Events, Event{At: at, Op: CULoss, CU: i})
		rolling.Events = append(rolling.Events, Event{At: at + 2*base, Op: CURestore, CU: i})
	}
	sort.SliceStable(rolling.Events, func(i, j int) bool { return rolling.Events[i].At < rolling.Events[j].At })
	squeeze := Schedule{Name: "squeeze", Events: []Event{
		// Two-step monitor capacity collapse: first to a sliver, then to
		// one way and a handful of waiters, forcing Monitor-Log spills and
		// eventually log rejects.
		{At: base, Op: DegradeSyncMon, Ways: 2, WaitList: 32},
		{At: 3 * base, Op: DegradeSyncMon, Ways: 1, WaitList: 4},
	}}
	jitter := Schedule{Name: "jitter", Events: []Event{
		// CP cadence stretched by up to 16x its default drain interval,
		// with a capacity squeeze to make spilled waiters depend on it.
		{At: base, Op: DegradeSyncMon, Ways: 1, WaitList: 16},
		{At: base, Op: JitterCP, Seed: 0xc0ffee, MaxSkew: 128_000},
	}}
	halfdown := Schedule{Name: "halfdown"}
	// Half the machine disappears one CU at a time and never comes back:
	// the strongest oversubscription ramp short of losing everything.
	for i := 0; i < numCUs/2; i++ {
		halfdown.Events = append(halfdown.Events,
			Event{At: base + event.Cycle(i)*base/2, Op: CULoss, CU: numCUs - 1 - i})
	}
	return []Schedule{flap, rolling, squeeze, jitter, halfdown}
}

// Random generates a seed-addressable random schedule: a splitmix64 stream
// drives fault kinds, targets, and timestamps across [base, base+span).
// The generator tracks CU enablement so the schedule always validates —
// restores pair with losses and at least one CU stays enabled throughout.
// Identical (seed, numCUs, base, span) inputs yield identical schedules.
func Random(seed uint64, numCUs int, base, span event.Cycle) Schedule {
	s := Schedule{Name: fmt.Sprintf("rand-%d", seed), Seed: seed}
	state := seed
	if span == 0 {
		span = 1
	}
	n := 6 + int(hashutil.SplitMix64(&state)%7) // 6..12 events
	enabled := make([]bool, numCUs)
	for i := range enabled {
		enabled[i] = true
	}
	numEnabled := numCUs
	at := base
	// Inter-event gaps draw from [0, span/n]. When span < n the integer
	// divide would collapse the divisor to 1 and every event would land at
	// exactly base; clamping to 2 keeps a 0-or-1 cycle spread so short
	// windows still order their events. Unchanged whenever span >= n.
	div := span/event.Cycle(n) + 1
	if div < 2 {
		div = 2
	}
	for i := 0; i < n; i++ {
		at += event.Cycle(hashutil.SplitMix64(&state) % uint64(div))
		switch hashutil.SplitMix64(&state) % 4 {
		case 0: // lose a random enabled CU, keeping one alive
			if numEnabled < 2 {
				continue
			}
			k := int(hashutil.SplitMix64(&state) % uint64(numCUs))
			for !enabled[k] {
				k = (k + 1) % numCUs
			}
			enabled[k] = false
			numEnabled--
			s.Events = append(s.Events, Event{At: at, Op: CULoss, CU: k})
		case 1: // restore a random lost CU
			if numEnabled == numCUs {
				continue
			}
			k := int(hashutil.SplitMix64(&state) % uint64(numCUs))
			for enabled[k] {
				k = (k + 1) % numCUs
			}
			enabled[k] = true
			numEnabled++
			s.Events = append(s.Events, Event{At: at, Op: CURestore, CU: k})
		case 2: // degrade the monitor to a random small geometry
			// WaitList 0 would model a monitor with ways but nowhere to
			// park a waiter — a degenerate geometry DegradeSyncMon never
			// means (WaitListSize 0 is reserved for the uncached-monitor
			// policy variants). Floor the draw at one entry; the ways draw
			// stays first so schedules that never drew 0 are unchanged.
			ways := 1 + int(hashutil.SplitMix64(&state)%4)
			wl := int(hashutil.SplitMix64(&state) % 64)
			if wl == 0 {
				wl = 1
			}
			s.Events = append(s.Events, Event{
				At: at, Op: DegradeSyncMon,
				Ways: ways, WaitList: wl,
			})
		default: // jitter the CP cadence
			s.Events = append(s.Events, Event{
				At: at, Op: JitterCP,
				Seed:    hashutil.SplitMix64(&state),
				MaxSkew: event.Cycle(hashutil.SplitMix64(&state) % 64_000),
			})
		}
	}
	return s
}
