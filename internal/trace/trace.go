// Package trace records per-work-group execution timelines from a
// simulation and renders them as the paper's Figure 6-style signatures:
// for each WG, an annotated sequence of phases (running, busy-polling,
// stalled, switching, switched out) with the synchronization events
// (atomic attempts, monitor arming, resumes, timeouts) that separate them.
//
// Tracing is optional: a Machine runs untraced unless a Recorder is
// attached, and recording costs one append per event.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"awgsim/internal/event"
)

// Kind classifies a timeline event.
type Kind int

const (
	// Start: the WG was dispatched and began executing.
	Start Kind = iota
	// Attempt: a synchronization atomic was issued.
	Attempt
	// Arm: a wait instruction armed the monitor (MonR/MonRS only).
	Arm
	// StallBegin: the WG parked on its CU, releasing issue slots.
	StallBegin
	// SwitchOut: the WG began a context save.
	SwitchOut
	// SwitchIn: the WG became resident again.
	SwitchIn
	// Resume: a monitor/CP notification woke the WG.
	Resume
	// TimeoutFire: the policy's fallback timeout ended a wait.
	TimeoutFire
	// Acquired: the wait episode completed successfully.
	Acquired
	// Finish: the WG completed.
	Finish

	// NumKinds bounds the Kind space; CountByKind tallies are indexed by it.
	NumKinds
)

// kindNames/glyphs are Kind-indexed arrays: rendering iterates them, so
// their order is fixed at compile time rather than by map traversal.
var kindNames = [NumKinds]string{
	Start:       "start",
	Attempt:     "atomic",
	Arm:         "arm",
	StallBegin:  "stall",
	SwitchOut:   "ctx-out",
	SwitchIn:    "ctx-in",
	Resume:      "resume",
	TimeoutFire: "timeout",
	Acquired:    "acquired",
	Finish:      "finish",
}

func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return kindNames[k]
	}
	return "?"
}

// glyphs renders each kind as a single timeline character.
var glyphs = [NumKinds]byte{
	Start:       '[',
	Attempt:     'a',
	Arm:         'm',
	StallBegin:  '_',
	SwitchOut:   '<',
	SwitchIn:    '>',
	Resume:      '!',
	TimeoutFire: 'T',
	Acquired:    '+',
	Finish:      ']',
}

// Event is one recorded timeline entry.
type Event struct {
	At   event.Cycle
	WG   int
	Kind Kind
}

// Recorder collects events. The zero value is ready to use.
type Recorder struct {
	events []Event
	limit  int
	oldest int // once full, the ring slot holding the oldest event
}

// NewRecorder builds a recorder keeping the newest limit events (0 =
// unlimited), so a run cut just past a stall keeps the cycles leading
// into it.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Record appends an event; once the limit is reached it overwrites the
// oldest.
func (r *Recorder) Record(at event.Cycle, wg int, kind Kind) {
	e := Event{At: at, WG: wg, Kind: kind}
	if r.limit == 0 || len(r.events) < r.limit {
		r.events = append(r.events, e)
		return
	}
	r.events[r.oldest] = e
	r.oldest = (r.oldest + 1) % r.limit
}

// Len reports recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns the recorded events in time order.
func (r *Recorder) Events() []Event {
	out := append(append([]Event(nil), r.events[r.oldest:]...), r.events[:r.oldest]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// CountByKind tallies events per kind, indexed by Kind. The fixed array
// (rather than a map) makes every consumer's iteration order — and thus any
// rendering built on the tallies — deterministic by construction.
func (r *Recorder) CountByKind() [NumKinds]int {
	var m [NumKinds]int
	for _, e := range r.events {
		m[e.Kind]++
	}
	return m
}

// Timeline renders the recorded events as one fixed-width lane per WG
// (Figure 6 style): time flows left to right across `width` columns, with
// each event drawn at its proportional position; later events in a column
// overwrite earlier ones.
//
//	[ start   a atomic   m arm   _ stall   < ctx-out   > ctx-in
//	! resume  T timeout  + acquired  ] finish
func (r *Recorder) Timeline(width int) string {
	if width <= 0 {
		width = 80
	}
	evs := r.Events()
	if len(evs) == 0 {
		return "(no events)\n"
	}
	start, end := evs[0].At, evs[0].At
	ids := make([]int, 0, 16)
	for _, e := range evs {
		if e.At < start {
			start = e.At
		}
		if e.At > end {
			end = e.At
		}
		ids = append(ids, e.WG)
	}
	span := end - start
	if span == 0 {
		span = 1
	}
	// Sorted unique WG ids; a lane's index is its id's rank, so the whole
	// render is ordered without any map in the path.
	sort.Ints(ids)
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || id != uniq[len(uniq)-1] {
			uniq = append(uniq, id)
		}
	}
	ids = uniq
	lanes := make([][]byte, len(ids))
	for li := range lanes {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		lanes[li] = lane
	}
	for _, e := range evs {
		col := int(uint64(e.At-start) * uint64(width-1) / uint64(span))
		li := sort.SearchInts(ids, e.WG)
		lanes[li][col] = glyphs[e.Kind]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d, one lane per WG (%s)\n", start, end, legend())
	for li, id := range ids {
		fmt.Fprintf(&b, "WG%-3d %s\n", id, lanes[li])
	}
	return b.String()
}

func legend() string {
	order := []Kind{Start, Attempt, Arm, StallBegin, SwitchOut, SwitchIn, Resume, TimeoutFire, Acquired, Finish}
	parts := make([]string, len(order))
	for i, k := range order {
		parts[i] = fmt.Sprintf("%c=%s", glyphs[k], k)
	}
	return strings.Join(parts, " ")
}

// Signature summarizes the recording as the per-policy counts Figure 6's
// timeline annotations correspond to.
func (r *Recorder) Signature() string {
	c := r.CountByKind()
	return fmt.Sprintf("atomics=%d arms=%d stalls=%d switches=%d resumes=%d timeouts=%d",
		c[Attempt], c[Arm], c[StallBegin], c[SwitchOut], c[Resume], c[TimeoutFire])
}
