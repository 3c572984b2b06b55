package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Stall reasons a Diagnosis carries; the machine picks one when its forward
// progress watchdog declares a run dead.
const (
	// ReasonProvenDeadlock: at a watchdog tick, every resident WG waits on
	// a condition that memory can no longer meet, and either no unfinished
	// WG can change memory again or no WG can ever become resident — the
	// structural deadlock of Baseline and Sleep oversubscribed, and of a
	// wait that no scheduler can satisfy.
	ReasonProvenDeadlock = "proven-deadlock"
	// ReasonProgressStall: no WG made forward progress for a full progress
	// window — what the proof does not cover: a lost wakeup, or a kernel
	// spinning outside a wait op.
	ReasonProgressStall = "progress-stall"
	// ReasonCycleBudget: the run was still making progress but exhausted
	// its simulated-cycle budget (livelock, or a budget set too tight).
	ReasonCycleBudget = "cycle-budget"
	// ReasonEventBudget: the engine's event budget ran out — a zero-delay
	// event loop that never advances the simulated clock.
	ReasonEventBudget = "event-budget"
	// ReasonNoEvents: the calendar drained with WGs unfinished — every
	// actor is parked with no timer left to wake anyone.
	ReasonNoEvents = "no-pending-events"
	// ReasonFleetDrain: the fleet layer drained this still-healthy workload
	// because device churn dropped the fleet below its survivable-capacity
	// floor — a clean, diagnosed stop rather than a hang.
	ReasonFleetDrain = "fleet-drain"
	// ReasonFleetBudget: the fleet-level cycle budget expired with this
	// workload unfinished (its own simulated-cycle budget may be untouched —
	// multiplexing and migration pauses slow fleet-relative progress).
	ReasonFleetBudget = "fleet-budget"
)

// BlockedCond is one synchronization condition unfinished WGs are blocked
// on: the (address, expected) pair of the paper's waiting conditions, plus
// the WGs stuck behind it.
type BlockedCond struct {
	Addr    uint64
	Want    int64
	Cmp     string // "==" or ">="
	Waiters []int  // WG ids blocked on this condition, ascending
}

// WGDiag is one unfinished work-group's state at diagnosis time.
type WGDiag struct {
	ID       int
	State    string // scheduling state (pending, resident, switched-out, ...)
	CU       int    // resident CU, -1 when none
	Blocked  bool   // inside a synchronization wait episode
	Addr     uint64 // the wait's condition, valid when Blocked
	Want     int64
	Cmp      string
	StuckFor uint64 // cycles since the wait episode began
}

// Diagnosis is the structured explanation attached to a deadlocked Result:
// what each unfinished WG was doing, which (address, expected) conditions
// they block on, scheduler queue occupancy, monitor/CP occupancy, and when
// progress last happened. It turns a DEADLOCK table cell into a debuggable
// artifact.
type Diagnosis struct {
	Reason       string
	AtCycle      uint64
	LastProgress uint64
	Completed    int
	Total        int

	// Scheduler occupancy.
	PendingWGs int // never-started WGs queued for first dispatch
	ReadyWGs   int // switched-out WGs whose conditions are met
	EnabledCUs int
	TotalCUs   int

	// Monitor-side occupancy, filled by the attached policy when it runs a
	// SyncMon/CP pair (zero for Baseline/Sleep/Timeout).
	SyncMonConditions int
	SyncMonWaiters    int
	MonitorLogLen     int
	CPTableSize       int

	WGs        []WGDiag      // unfinished WGs, ascending id
	Conditions []BlockedCond // blocking conditions, ascending (addr, want, cmp)
}

// Summary is the one-line form: reason plus the headline numbers.
func (d *Diagnosis) Summary() string {
	return fmt.Sprintf("%s at cycle %d (last progress %d): %d/%d WGs done, %d blocked conditions, %d/%d CUs enabled",
		d.Reason, d.AtCycle, d.LastProgress, d.Completed, d.Total, len(d.Conditions), d.EnabledCUs, d.TotalCUs)
}

// String renders the full multi-line diagnosis in the format README
// documents: summary, scheduler and monitor occupancy, the blocking
// conditions with their waiters, and a per-state WG census.
func (d *Diagnosis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock diagnosis: %s\n", d.Summary())
	fmt.Fprintf(&b, "  scheduler: %d pending, %d ready", d.PendingWGs, d.ReadyWGs)
	fmt.Fprintf(&b, "; syncmon: %d conditions / %d waiters; monitor log: %d; cp table: %d\n",
		d.SyncMonConditions, d.SyncMonWaiters, d.MonitorLogLen, d.CPTableSize)
	for _, c := range d.Conditions {
		fmt.Fprintf(&b, "  blocked on [0x%x %s %d]: %d WG(s) %s\n",
			c.Addr, c.Cmp, c.Want, len(c.Waiters), idRanges(c.Waiters))
	}
	// WG census by state, so a 384-WG diagnosis stays readable.
	states := make(map[string][]int)
	for _, w := range d.WGs {
		states[w.State] = append(states[w.State], w.ID)
	}
	names := make([]string, 0, len(states))
	for s := range states {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		ids := states[s]
		fmt.Fprintf(&b, "  %d WG(s) %s: %s\n", len(ids), s, idRanges(ids))
	}
	return b.String()
}

// idRanges compresses a sorted id list into "0-5,8,10-12" form.
func idRanges(ids []int) string {
	var b strings.Builder
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d", ids[i], ids[j])
		} else {
			fmt.Fprintf(&b, "%d", ids[i])
		}
		i = j + 1
	}
	return b.String()
}
