package gpu

import (
	"fmt"
	"strings"

	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/trace"
)

// Machine.Snapshot/Restore capture and rewind the whole simulated GPU: the
// event calendar, the memory hierarchy, the scheduler queues and CU pools,
// every WG's runtime state, the Table 2 characterization, and — via the
// registered snapshot hooks — the attached policy's monitor hardware.
//
// A WG's program position is plain data — its interpreter frame (pc,
// pending destination register, register file) — so snapshots copy it and
// restores copy it back, in O(registers).
//
// Host-side state is deliberately excluded: the tracer, diagnostic sinks,
// the snapshot ring itself, and the engine's task free list are not
// simulated state. Deep slabs (the paged word store) are shared
// copy-on-write, so a snapshot costs O(dirty), not O(footprint).

// EpisodeState is implemented by policy episode records stored in
// WG.PolicyData whose mutable fields must travel with machine snapshots.
// The calendar's closures keep referencing the same episode object across a
// restore, so LoadEpisode rewinds the object in place rather than replacing
// it.
type EpisodeState interface {
	SaveEpisode() any
	LoadEpisode(any)
}

// snapHook carries one policy-side subsystem in and out of machine
// snapshots.
type snapHook struct {
	save    func() any
	restore func(any)
}

// AddSnapshotHook registers policy-side state with the machine's snapshot
// machinery: save is called by Machine.Snapshot, restore with the saved
// value by Machine.Restore. Monitor policies use it to bundle their
// SyncMon/CP/predictor state.
func (m *Machine) AddSnapshotHook(save func() any, restore func(any)) {
	m.snapHooks = append(m.snapHooks, snapHook{save: save, restore: restore})
}

// Snapshot is a point-in-time copy of the Machine's simulated state. It is
// immutable after capture and may be restored any number of times, on the
// machine that produced it.
type Snapshot struct {
	eng *event.Snapshot
	mem *mem.Snapshot

	count        Counters
	completed    int
	maxWait      uint64
	lastDoneAt   event.Cycle
	lastProgress event.Cycle
	deadlocked   bool
	diag         *metrics.Diagnosis
	jitterState  uint64

	kernels []kernelSnap
	sched   schedSnap
	cus     []cuSnap
	wgs     []wgSnap
	atomics atomicsSnap
	hooks   []any
}

// Now reports the simulated cycle at which the snapshot was taken.
func (s *Snapshot) Now() event.Cycle { return s.eng.Now() }

// Bytes estimates the snapshot's memory footprint (shared COW pages count
// at pointer cost, so this reflects the O(dirty) copy cost).
func (s *Snapshot) Bytes() int {
	n := 256 + s.eng.Bytes() + s.mem.Bytes()
	n += 24 * len(s.kernels)
	n += 16 * (len(s.sched.pending) + len(s.sched.readyQueue))
	n += 16 * len(s.cus)
	for i := range s.wgs {
		n += 160 + 8*len(s.wgs[i].parked)
		if f := s.wgs[i].frame; f != nil {
			n += 40 + 8*len(f.regs)
		}
	}
	n += 24 * len(s.atomics.charAddrs)
	for i := range s.atomics.charSlab {
		c := &s.atomics.charSlab[i]
		n += 64 + 8*(len(c.wantVals)+len(c.epWGs)+len(c.epCounts)+len(c.updatesPerMet)) + 24*len(c.conds)
	}
	for _, h := range s.hooks {
		if b, ok := h.(interface{ Bytes() int }); ok {
			n += b.Bytes()
		}
	}
	return n
}

type kernelSnap struct {
	completed int
	launched  event.Cycle
	doneAt    event.Cycle
}

type schedSnap struct {
	pending    []*WG
	readyQueue []*WG
	queueSeq   uint64
	dispFree   event.Cycle
	kickQueued bool
}

type cuSnap struct {
	enabled                   bool
	wgSlots, wfSlots, ldsFree int
}

// frameSnap records an IR WG's interpreter position: everything mutable in
// its frame (the program and geometry constants are launch-immutable).
type frameSnap struct {
	pc   int
	dst  int16
	regs []int64
}

// wgSnap records one WG's mutable runtime state. The resident maps are not
// saved: w.cu mirrors residency exactly (host sets it, release clears it),
// so Restore rebuilds each CU's resident set from the WGs — no map
// iteration anywhere in the snapshot path.
type wgSnap struct {
	frame          *frameSnap
	state          WGState
	cu             CUID
	parked         []func()
	queueSeq       uint64
	readyWhenSaved bool
	policyData     any
	epState        any
	waiting        bool
	waitVar        Var
	waitWant       int64
	waitCmp        Cmp
	waitBegan      event.Cycle
	stalled        bool
	phaseStart     event.Cycle
	runningCycles  uint64
	waitingCycles  uint64
	started        bool
	finished       bool
	forcePreempted bool
}

type atomicsSnap struct {
	charIdx   *hashutil.Flat[mem.Addr, int32]
	charSlab  []varChar
	charAddrs []mem.Addr
}

func cloneVarChar(c *varChar) varChar {
	return varChar{
		scope:         c.scope,
		wantVals:      append([]int64(nil), c.wantVals...),
		conds:         append([]condStat(nil), c.conds...),
		maxWaiters:    c.maxWaiters,
		epWGs:         append([]WGID(nil), c.epWGs...),
		epCounts:      append([]int(nil), c.epCounts...),
		updatesPerMet: append([]int(nil), c.updatesPerMet...),
	}
}

// Snapshot captures the machine's simulated state. It must be called between
// events (from the driving goroutine, or from within a single event).
func (m *Machine) Snapshot() *Snapshot {
	sched, au := m.sched, m.atomics
	s := &Snapshot{
		eng:          m.eng.Snapshot(),
		mem:          m.mem.Snapshot(),
		count:        m.Count,
		completed:    m.completed,
		maxWait:      m.maxWait,
		lastDoneAt:   m.lastDoneAt,
		lastProgress: m.lastProgress,
		deadlocked:   m.deadlocked,
		diag:         m.diag,
		jitterState:  m.jitterState,
	}
	s.kernels = make([]kernelSnap, len(m.kernels))
	for i, kr := range m.kernels {
		s.kernels[i] = kernelSnap{completed: kr.completed, launched: kr.launched, doneAt: kr.doneAt}
	}
	s.sched = schedSnap{
		pending:    append([]*WG(nil), sched.pending...),
		readyQueue: append([]*WG(nil), sched.readyQueue...),
		queueSeq:   sched.queueSeq,
		dispFree:   sched.dispFree,
		kickQueued: sched.kickQueued,
	}
	s.cus = make([]cuSnap, len(sched.cus))
	for i, cu := range sched.cus {
		s.cus[i] = cuSnap{enabled: cu.enabled, wgSlots: cu.wgSlots, wfSlots: cu.wfSlots, ldsFree: cu.ldsFree}
	}
	s.wgs = make([]wgSnap, len(m.allWGs))
	for i, w := range m.allWGs {
		ws := wgSnap{
			state:          w.state,
			cu:             w.cu,
			parked:         append([]func(){}, w.parked...),
			queueSeq:       w.queueSeq,
			readyWhenSaved: w.readyWhenSaved,
			policyData:     w.PolicyData,
			waiting:        w.waiting,
			waitVar:        w.waitVar,
			waitWant:       w.waitWant,
			waitCmp:        w.waitCmp,
			waitBegan:      w.waitBegan,
			stalled:        w.stalled,
			phaseStart:     w.phaseStart,
			runningCycles:  w.runningCycles,
			waitingCycles:  w.waitingCycles,
			started:        w.started,
			finished:       w.finished,
			forcePreempted: w.forcePreempted,
		}
		if f := w.frame; f != nil {
			ws.frame = &frameSnap{pc: f.pc, dst: f.dst, regs: append([]int64(nil), f.regs...)}
		}
		if ep, ok := w.PolicyData.(EpisodeState); ok {
			ws.epState = ep.SaveEpisode()
		}
		s.wgs[i] = ws
	}
	s.atomics = atomicsSnap{
		charIdx:   au.charIdx.Clone(),
		charSlab:  make([]varChar, len(au.charSlab)),
		charAddrs: append([]mem.Addr(nil), au.charAddrs...),
	}
	for i := range au.charSlab {
		s.atomics.charSlab[i] = cloneVarChar(&au.charSlab[i])
	}
	for _, h := range m.snapHooks {
		s.hooks = append(s.hooks, h.save())
	}
	return s
}

// Restore rewinds the machine to the snapshot: engine calendar, memory,
// machine bookkeeping, subsystems, WG runtime state (including interpreter
// frames) and the hooked policy state. A restored machine
// continues with RunTo/FinishRun and is bit-identical to a run that was
// never interrupted.
func (m *Machine) Restore(s *Snapshot) {
	sched, au := m.sched, m.atomics
	m.eng.Restore(s.eng)
	m.mem.Restore(s.mem)
	m.Count = s.count
	m.completed = s.completed
	m.maxWait = s.maxWait
	m.lastDoneAt = s.lastDoneAt
	m.lastProgress = s.lastProgress
	m.deadlocked = s.deadlocked
	m.diag = s.diag
	m.jitterState = s.jitterState
	for i, kr := range m.kernels {
		ks := &s.kernels[i]
		kr.completed, kr.launched, kr.doneAt = ks.completed, ks.launched, ks.doneAt
	}
	sched.pending = append(sched.pending[:0], s.sched.pending...)
	sched.readyQueue = append(sched.readyQueue[:0], s.sched.readyQueue...)
	sched.queueSeq = s.sched.queueSeq
	sched.dispFree = s.sched.dispFree
	sched.kickQueued = s.sched.kickQueued
	for i, cu := range sched.cus {
		cs := &s.cus[i]
		cu.enabled, cu.wgSlots, cu.wfSlots, cu.ldsFree = cs.enabled, cs.wgSlots, cs.wfSlots, cs.ldsFree
		clear(cu.resident)
	}
	for i, w := range m.allWGs {
		m.restoreWG(w, &s.wgs[i])
		if w.cu != NoCU {
			sched.cus[w.cu].resident[w.id] = w
		}
	}
	au.charIdx.CopyFrom(s.atomics.charIdx)
	au.charSlab = au.charSlab[:0]
	for i := range s.atomics.charSlab {
		au.charSlab = append(au.charSlab, cloneVarChar(&s.atomics.charSlab[i]))
	}
	au.charAddrs = append(au.charAddrs[:0], s.atomics.charAddrs...)
	for i, h := range m.snapHooks {
		h.restore(s.hooks[i])
	}
}

// restoreWG rewinds one WG, copying its interpreter frame back into place.
// A snapshot from before the WG started has no frame; runStartBody
// recreates it.
func (m *Machine) restoreWG(w *WG, ws *wgSnap) {
	if ws.frame == nil {
		w.frame = nil
	} else {
		if w.frame == nil {
			w.frame = newIRFrame(w)
		}
		w.frame.pc = ws.frame.pc
		w.frame.dst = ws.frame.dst
		copy(w.frame.regs, ws.frame.regs)
	}
	w.state = ws.state
	w.cu = ws.cu
	w.parked = append(w.parked[:0], ws.parked...)
	w.queueSeq = ws.queueSeq
	w.readyWhenSaved = ws.readyWhenSaved
	w.PolicyData = ws.policyData
	if ws.epState != nil {
		ws.policyData.(EpisodeState).LoadEpisode(ws.epState)
	}
	w.waiting = ws.waiting
	w.waitVar, w.waitWant, w.waitCmp, w.waitBegan = ws.waitVar, ws.waitWant, ws.waitCmp, ws.waitBegan
	w.stalled = ws.stalled
	w.phaseStart = ws.phaseStart
	w.runningCycles = ws.runningCycles
	w.waitingCycles = ws.waitingCycles
	w.started = ws.started
	w.finished = ws.finished
	w.forcePreempted = ws.forcePreempted
}

// snapRingSize bounds the time-travel ring: the newest few periodic
// snapshots are enough to find one just before the stall.
const snapRingSize = 4

// pushRingSnapshot appends a periodic snapshot, dropping the oldest beyond
// the ring size.
func (m *Machine) pushRingSnapshot() {
	sn := m.Snapshot()
	if len(m.snapRing) == snapRingSize {
		copy(m.snapRing, m.snapRing[1:])
		m.snapRing[snapRingSize-1] = sn
		return
	}
	m.snapRing = append(m.snapRing, sn)
}

// replayTrace re-executes the window before a diagnosed stall with tracing
// enabled and renders the timeline: the machine rewinds to the newest ring
// snapshot at or before the last progress event, runs to the diagnosis
// cycle recording every scheduling event, then restores its end state. The
// watchdog and ring closures consume identical engine state under
// m.replaying, so the replay must land where the original run was
// diagnosed; replayDivergence checks that, and the rendered header reports
// any mismatch.
func (m *Machine) replayTrace() string {
	diag := m.diag
	endSnap := m.Snapshot()
	pick := m.snapRing[0]
	for _, sn := range m.snapRing {
		if uint64(sn.Now()) <= diag.LastProgress {
			pick = sn
		}
	}
	rec := trace.NewRecorder(100_000)
	oldTracer := m.tracer
	m.replaying = true
	m.Restore(pick)
	m.tracer = rec
	m.RunTo(event.Cycle(diag.AtCycle))
	diverged := m.replayDivergence(diag)
	m.tracer = oldTracer
	m.Restore(endSnap)
	m.replaying = false
	var b strings.Builder
	fmt.Fprintf(&b, "replay of cycles %d..%d (%s):\n", uint64(pick.Now()), diag.AtCycle, rec.Signature())
	if diverged != "" {
		fmt.Fprintf(&b, "replay diverged from the diagnosed run: %s\n", diverged)
	}
	b.WriteString(rec.Timeline(100))
	return b.String()
}

// replayDivergence is the runtime replay-purity check: it compares the
// replayed run's WG completions, last progress and stop cycle with the
// diagnosis it re-derives, describing each mismatch ("" when all agree).
func (m *Machine) replayDivergence(d *metrics.Diagnosis) string {
	var diffs []string
	if m.completed != d.Completed {
		diffs = append(diffs, fmt.Sprintf("%d WGs completed, diagnosis has %d", m.completed, d.Completed))
	}
	if got := uint64(m.lastProgress); got != d.LastProgress {
		diffs = append(diffs, fmt.Sprintf("last progress at cycle %d, diagnosis has %d", got, d.LastProgress))
	}
	if got := uint64(m.eng.Now()); got != d.AtCycle {
		diffs = append(diffs, fmt.Sprintf("stopped at cycle %d, diagnosis has %d", got, d.AtCycle))
	}
	return strings.Join(diffs, "; ")
}
