package gpu

import (
	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/trace"
)

// AtomicObserver is notified at bank-service time of every atomic, after
// its value applies. The monitor policies subscribe through this.
type AtomicObserver func(by *WG, v Var, op AtomicOp, old, new int64)

// atomicUnit is the atomic pipeline's state: the observer that every
// atomic's bank-service leg (runAtomicApply) reports to, and the Table 2
// synchronization characterization. IssueAtomic and IssueArm route
// atomics and monitor arms to the variable's synchronization point with
// the memory system's timing.
type atomicUnit struct {
	observer AtomicObserver // nil until the policy's monitor subscribes

	// Table 2 characterization. Every update is O(1): observeUpdate runs
	// at each write atomic's bank-service instant and bumps one per-variable
	// write count, and a wait episode's update count is the difference of
	// that count between its begin and met. A WG has at most one open
	// episode (beginWait runs only from a running frame, and EndWait closes
	// the episode before the frame steps again), so the episode's refs and
	// starting count live on the WG (charVar, charCond, charStart).
	charIdx hashutil.Flat[mem.Addr, int32] // aligned addr -> 1-based ref into writes
	writes  []uint64                       // write atomics per variable

	// These indexes and charIdx allocate their slots on their first Put,
	// which only charBegin makes, so a run that never waits allocates none
	// of the three.
	condIdx hashutil.Flat[condKey, int32] // (addr, want) -> 1-based ref into waiters
	wantIdx hashutil.Flat[condKey, bool]  // (aligned addr, want) waited for
	waiters []int                         // WGs waiting per condition now

	maxWaiters int
	wants      int    // distinct waited-for values, summed over variables
	open, mets int    // wait episodes open now, and met so far
	metUpdates uint64 // writes between begin and met, summed over met episodes
}

type condKey struct {
	addr mem.Addr
	want int64
}

func (k condKey) hash() uint64 {
	return hashutil.Mix64(hashutil.Mix64(uint64(k.addr)) ^ uint64(k.want))
}

// newAtomicUnit sizes the characterization's indexes for a program whose
// address pool has vars entries: every address a program can touch is an
// entry of its pool. The size sets only the first allocation (an injected
// kernel's variables grow the tables), and a Flat never iterates, so it
// cannot reach a result.
func newAtomicUnit(vars int) *atomicUnit {
	return &atomicUnit{
		charIdx: hashutil.NewFlat[mem.Addr, int32](min(vars, 64), func(a mem.Addr) uint64 {
			return hashutil.Mix64(uint64(a))
		}),
		condIdx: hashutil.NewFlat[condKey, int32](min(vars, 16), condKey.hash),
		wantIdx: hashutil.NewFlat[condKey, bool](min(vars, 16), condKey.hash),
	}
}

// AtomicRet is the resp-task slot the atomic pipeline deposits the op's
// returned value into before the response task fires (see IssueAtomic).
const AtomicRet = 5

// IssueAtomic performs an atomic for w (nil for agent-issued operations
// such as CP condition checks). The op's value effect and the observer's
// notification happen at bank-service time; resp, an unscheduled task or
// nil, fires at response time with the op's returned value in
// resp.I[AtomicRet]. The apply leg is scheduled before resp, so their seq
// order — and therefore every same-timestamp interleaving — matches
// event issue order. A WG that is not resident parks the atomic until it
// is.
func (m *Machine) IssueAtomic(w *WG, v Var, op AtomicOp, a, b int64, resp *event.Task) {
	parked := w != nil && !w.Resident()
	fn := runAtomicApply
	if parked {
		fn = runParkedAtomic
	}
	t := m.wgTask(fn, w)
	t.Env[2] = resp
	t.I[0], t.I[1], t.I[2] = int64(v.Addr), int64(v.Scope), int64(v.Group)
	t.I[3], t.I[4], t.I[5] = a, b, int64(op)
	if parked {
		w.park(t)
		return
	}
	m.Trace(w, trace.Attempt)
	var applyAt, respAt event.Cycle
	if v.Scope == Local && w != nil && int(w.cu) == v.Group {
		applyAt, respAt = m.mem.LocalAtomicTiming(int(w.cu), v.Addr)
	} else {
		applyAt, respAt = m.mem.AtomicTiming(v.Addr)
	}
	m.eng.AtTask(applyAt, t)
	if w != nil {
		w.applying++
	}
	if resp != nil {
		m.eng.AtTask(respAt, resp)
	}
}

// atomicArgs unpacks the variable and operands IssueAtomic packed into t.
func atomicArgs(t *event.Task) (v Var, op AtomicOp, a, b int64) {
	v = Var{Addr: mem.Addr(t.I[0]), Scope: Scope(t.I[1]), Group: int(t.I[2])}
	return v, AtomicOp(t.I[5]), t.I[3], t.I[4]
}

// runParkedAtomic issues an atomic its WG parked while it was away.
func runParkedAtomic(t *event.Task) {
	v, op, a, b := atomicArgs(t)
	resp, _ := t.Env[2].(*event.Task)
	t.Env[0].(*Machine).IssueAtomic(t.Env[1].(*WG), v, op, a, b, resp)
}

// runAtomicApply is the bank-service leg: value effect, then the
// observer's notification.
func runAtomicApply(t *event.Task) {
	m := t.Env[0].(*Machine)
	w, _ := t.Env[1].(*WG)
	p := m.atomics
	v, op, a, b := atomicArgs(t)
	old := m.mem.Read(v.Addr)
	newVal, ret := op.Apply(old, a, b)
	if rt, _ := t.Env[2].(*event.Task); rt != nil {
		// The response task is still on the calendar (respAt >= applyAt,
		// scheduled after us): deposit the return value for it.
		rt.I[AtomicRet] = ret
	}
	if newVal != old {
		m.mem.Write(v.Addr, newVal)
	}
	if w != nil {
		w.applying--
		// While an episode is open, the WG's only atomics are its
		// attempts.
		if w.waiting && w.wait.Cmp.Test(ret, w.wait.Want) {
			w.metAttempt = true
		}
	}
	if op.IsWrite() {
		p.observeUpdate(v.Addr)
	}
	if p.observer != nil {
		p.observer(w, v, op, old, newVal)
	}
}

// IssueArm sends a wait-instruction arm for w to the SyncMon at the L2:
// the unscheduled task bank fires at bank-service time (where the monitor
// registers the condition — any update applied between the triggering
// atomic and this instant is missed, the paper's window of
// vulnerability), and resp at response time. A WG that is not resident
// parks the arm until it is.
func (m *Machine) IssueArm(w *WG, v Var, bank, resp *event.Task) {
	if !w.Resident() {
		t := m.wgTask(runParkedArm, w)
		t.Env[2], t.Env[3] = bank, resp
		t.I[0], t.I[1], t.I[2] = int64(v.Addr), int64(v.Scope), int64(v.Group)
		w.park(t)
		return
	}
	m.Trace(w, trace.Arm)
	applyAt, respAt := m.mem.ArmTiming(v.Addr)
	m.eng.AtTask(applyAt, bank)
	m.eng.AtTask(respAt, resp)
}

// runParkedArm sends an arm its WG parked while it was away.
func runParkedArm(t *event.Task) {
	v, _, _, _ := atomicArgs(t)
	t.Env[0].(*Machine).IssueArm(t.Env[1].(*WG), v, t.Env[2].(*event.Task), t.Env[3].(*event.Task))
}

// --- Table 2 characterization instrumentation ---

// charBegin opens w's wait episode on want at v for the Table 2 stats.
func (p *atomicUnit) charBegin(w *WG, v Var, want int64) {
	addr := v.Addr.WordAligned() // observeUpdate keys by aligned address
	r := p.charIdx.Put(addr)
	if *r == 0 {
		p.writes = append(p.writes, 0)
		*r = int32(len(p.writes))
	}
	w.charVar, w.charStart = *r, p.writes[*r-1]
	if seen := p.wantIdx.Put(condKey{addr, want}); !*seen {
		*seen = true
		p.wants++
	}
	c := p.condIdx.Put(condKey{v.Addr, want})
	if *c == 0 {
		p.waiters = append(p.waiters, 0)
		*c = int32(len(p.waiters))
	}
	w.charCond = *c
	p.waiters[*c-1]++
	p.maxWaiters = max(p.maxWaiters, p.waiters[*c-1])
	p.open++
}

// charMet closes w's open wait episode.
func (p *atomicUnit) charMet(w *WG) {
	p.waiters[w.charCond-1]--
	p.metUpdates += p.writes[w.charVar-1] - w.charStart
	p.open--
	p.mets++
}

func (p *atomicUnit) observeUpdate(a mem.Addr) {
	if r := p.charIdx.Ref(a.WordAligned()); r != nil {
		p.writes[*r-1]++
	}
}

// charSummary aggregates the Table 2 columns over a whole run.
type charSummary struct {
	syncVars int
	stats    metrics.SyncVarStats
}

// characterization computes the run's charSummary. The mean divides
// integer totals, so no accumulation order can leak into it.
func (p *atomicUnit) characterization() charSummary {
	sum := charSummary{
		syncVars: len(p.writes),
		stats:    metrics.SyncVarStats{Conditions: p.wants, MaxWaiters: p.maxWaiters},
	}
	if p.mets > 0 {
		sum.stats.UpdatesPerCond = float64(p.metUpdates) / float64(p.mets)
	}
	return sum
}

// stateBytes is the characterization's term of Machine.StateBytes: an
// 88-byte record per variable, 8 bytes per distinct waited-for value, 16
// per open episode, 8 per met one, and 24 per condition.
func (p *atomicUnit) stateBytes() int {
	return 88*len(p.writes) + 8*(p.wants+2*p.open+p.mets) + 24*len(p.waiters)
}

// OnAtomicApply subscribes f to every atomic's bank-service instant,
// replacing any earlier subscriber: a machine has one monitor.
func (m *Machine) OnAtomicApply(f AtomicObserver) { m.atomics.observer = f }
