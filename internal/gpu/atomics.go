package gpu

import (
	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/trace"
)

// AtomicObserver is notified at bank-service time of every atomic, after
// its value applies. The SyncMon subscribes through this.
type AtomicObserver func(by *WG, v Var, op AtomicOp, old, new int64)

// atomicUnit is the machine's atomic pipeline: it routes atomics and
// monitor arms to the variable's synchronization point with the memory
// system's timing, applies value effects at bank-service time, reports
// them to its observer, and keeps the Table 2 synchronization
// characterization.
type atomicUnit struct {
	m        *Machine
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
func newAtomicUnit(m *Machine, vars int) *atomicUnit {
	return &atomicUnit{
		m: m,
		charIdx: hashutil.NewFlat[mem.Addr, int32](min(vars, 64), func(a mem.Addr) uint64 {
			return hashutil.Mix64(uint64(a))
		}),
		condIdx: hashutil.NewFlat[condKey, int32](min(vars, 16), condKey.hash),
		wantIdx: hashutil.NewFlat[condKey, bool](min(vars, 16), condKey.hash),
	}
}

// AtomicRet is the resp-task slot the atomic pipeline deposits the op's
// returned value into before the response task fires (see IssueAtomicTask).
const AtomicRet = 5

// issue performs an atomic for w (nil for agent-issued operations such as
// CP condition checks). The op's value effect and all monitor observations
// happen at bank-service time; resp, if non-nil, runs at response time with
// the op's returned value. atBank, if non-nil, runs at bank-service time
// after the observer — this is where waiting atomics register their
// condition race-free.
func (p *atomicUnit) issue(w *WG, v Var, op AtomicOp, a, b int64, atBank func(old, new int64), resp func(ret int64)) {
	if w != nil && !w.Resident() {
		w.Park(func() { p.issue(w, v, op, a, b, atBank, resp) })
		return
	}
	var rt *event.Task
	if resp != nil {
		rt = p.m.eng.NewTask(runAtomicRespFunc)
		rt.Env[0] = resp
	}
	p.start(w, v, op, a, b, atBank, rt)
}

// issueTask performs an atomic whose response continuation is a pooled
// task: resp fires at response time with the op's returned value already
// deposited in resp.I[AtomicRet].
func (p *atomicUnit) issueTask(w *WG, v Var, op AtomicOp, a, b int64, resp *event.Task) {
	if w != nil && !w.Resident() {
		w.Park(func() { p.issueTask(w, v, op, a, b, resp) })
		return
	}
	p.start(w, v, op, a, b, nil, resp)
}

// start schedules the apply and response legs for a resident (or agent)
// atomic. The apply leg is scheduled before the response leg so their seq
// order — and therefore every same-timestamp interleaving — matches event
// issue order.
func (p *atomicUnit) start(w *WG, v Var, op AtomicOp, a, b int64, atBank func(old, new int64), resp *event.Task) {
	m := p.m
	m.Trace(w, trace.Attempt)
	var applyAt, respAt event.Cycle
	if v.Scope == Local && w != nil && int(w.cu) == v.Group {
		applyAt, respAt = m.mem.LocalAtomicTiming(int(w.cu), v.Addr)
	} else {
		applyAt, respAt = m.mem.AtomicTiming(v.Addr)
	}
	t := m.eng.NewTask(runAtomicApply)
	t.Env[0] = p
	t.Env[1] = w
	t.Env[2] = atBank
	t.Env[3] = resp
	t.I[0] = int64(v.Addr)
	t.I[1] = int64(v.Scope)
	t.I[2] = int64(v.Group)
	t.I[3] = a
	t.I[4] = b
	t.I[5] = int64(op)
	m.eng.AtTask(applyAt, t)
	if w != nil {
		w.applying++
	}
	if resp != nil {
		m.eng.AtTask(respAt, resp)
	}
}

// runAtomicApply is the bank-service leg: value effect, monitored-bit fan
// out, and the race-free atBank hook, in that order.
func runAtomicApply(t *event.Task) {
	p := t.Env[0].(*atomicUnit)
	w, _ := t.Env[1].(*WG)
	m := p.m
	v := Var{Addr: mem.Addr(t.I[0]), Scope: Scope(t.I[1]), Group: int(t.I[2])}
	a, b := t.I[3], t.I[4]
	op := AtomicOp(t.I[5])
	old := m.mem.Read(v.Addr)
	newVal, ret := op.Apply(old, a, b)
	if rt, _ := t.Env[3].(*event.Task); rt != nil {
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
	if atBank, _ := t.Env[2].(func(old, new int64)); atBank != nil {
		atBank(old, newVal)
	}
}

// runAtomicRespFunc adapts a closure-style resp callback to the task path.
func runAtomicRespFunc(t *event.Task) {
	t.Env[0].(func(ret int64))(t.I[AtomicRet])
}

// arm sends a wait-instruction arm for w to the SyncMon at the L2: atBank
// runs at bank-service time (where the monitor registers the condition —
// any update applied between the triggering atomic and this instant is
// missed, the paper's window of vulnerability), and resp at response time.
func (p *atomicUnit) arm(w *WG, v Var, atBank func(), resp func()) {
	m := p.m
	if w != nil && !w.Resident() {
		w.Park(func() { p.arm(w, v, atBank, resp) })
		return
	}
	m.Trace(w, trace.Arm)
	applyAt, respAt := m.mem.ArmTiming(v.Addr)
	if atBank != nil {
		m.eng.At(applyAt, atBank)
	}
	if resp != nil {
		m.eng.At(respAt, resp)
	}
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

// IssueAtomicTask performs an atomic like IssueAtomic but delivers the
// response through a pooled event task: resp fires at response time with
// the op's returned value in resp.I[AtomicRet]. High-rate agent paths (the
// CP's periodic condition checks) use this to avoid a fresh closure per
// probe.
func (m *Machine) IssueAtomicTask(w *WG, v Var, op AtomicOp, a, b int64, resp *event.Task) {
	m.atomics.issueTask(w, v, op, a, b, resp)
}

// IssueAtomic performs an atomic for w (nil for agent-issued operations
// such as CP condition checks). The op's value effect and all monitor
// observations happen at bank-service time; resp, if non-nil, runs at
// response time with the op's returned value. atBank, if non-nil, runs at
// bank-service time after the observer — this is where waiting atomics
// register their condition race-free.
func (m *Machine) IssueAtomic(w *WG, v Var, op AtomicOp, a, b int64, atBank func(old, new int64), resp func(ret int64)) {
	m.atomics.issue(w, v, op, a, b, atBank, resp)
}

// IssueArm sends a wait-instruction arm for w to the SyncMon at the L2:
// atBank runs at bank-service time (where the monitor registers the
// condition — any update applied between the triggering atomic and this
// instant is missed, the paper's window of vulnerability), and resp at
// response time.
func (m *Machine) IssueArm(w *WG, v Var, atBank func(), resp func()) {
	m.atomics.arm(w, v, atBank, resp)
}
