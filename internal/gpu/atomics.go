package gpu

import (
	"sort"

	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/trace"
)

// AtomicObserver is notified at bank-service time of every atomic, after
// its value applies. The SyncMon implementations subscribe through this.
type AtomicObserver func(by *WG, v Var, op AtomicOp, old, new int64)

// atomicUnit is the machine's atomic pipeline: it routes atomics and
// monitor arms to the variable's synchronization point with the memory
// system's timing, applies value effects at bank-service time, fans out to
// observers, and keeps the Table 2 synchronization characterization.
type atomicUnit struct {
	m         *Machine
	observers []AtomicObserver

	// Table 2 characterization: a slab of per-variable records indexed by
	// word-aligned address. observeUpdate runs at every write atomic's
	// bank-service instant, so the lookup and the active-episode walk are
	// flat-array operations rather than map traffic.
	charIdx   *hashutil.Flat[mem.Addr, int32] // aligned addr -> 1-based slab ref
	charSlab  []varChar
	charAddrs []mem.Addr // slab insertion order (characterization re-sorts)
}

// varChar keeps one synchronization variable's Table 2 statistics. The
// per-variable populations (distinct waited-for values, concurrent
// conditions, active episodes) are small — bounded by concurrent waiters —
// so linear scans of flat slices beat map overhead on every path.
type varChar struct {
	scope Scope

	wantVals []int64    // distinct waited-for values
	conds    []condStat // concurrent waiters per (addr, want) condition

	maxWaiters int

	epWGs    []WGID // active episodes: the waiting WGs...
	epCounts []int  // ...and updates observed since each began

	updatesPerMet []int
}

type condStat struct {
	key condKey
	n   int
}

type condKey struct {
	addr mem.Addr
	want int64
}

func newAtomicUnit(m *Machine) *atomicUnit {
	return &atomicUnit{m: m, charIdx: hashutil.NewFlat[mem.Addr, int32](64, func(a mem.Addr) uint64 {
		return hashutil.Mix64(uint64(a))
	})}
}

// subscribe registers f for every atomic's bank-service instant.
func (p *atomicUnit) subscribe(f AtomicObserver) {
	p.observers = append(p.observers, f)
}

// AtomicRet is the resp-task slot the atomic pipeline deposits the op's
// returned value into before the response task fires (see IssueAtomicTask).
const AtomicRet = 5

// issue performs an atomic for w (nil for agent-issued operations such as
// CP condition checks). The op's value effect and all monitor observations
// happen at bank-service time; resp, if non-nil, runs at response time with
// the op's returned value. atBank, if non-nil, runs at bank-service time
// after observers — this is where waiting atomics register their condition
// race-free.
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
	if resp != nil {
		m.eng.AtTask(respAt, resp)
	}
}

// runAtomicApply is the bank-service leg: value effect, monitored-bit fan
// out, and the race-free atBank hook, in the same order the closure-based
// path used.
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
	if op.IsWrite() {
		p.observeUpdate(v.Addr)
	}
	for _, obs := range p.observers {
		obs(w, v, op, old, newVal)
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

func (p *atomicUnit) charFor(v Var) *varChar {
	addr := v.Addr.WordAligned() // observeUpdate keys by aligned address
	r := p.charIdx.Put(addr)
	if *r == 0 {
		p.charSlab = append(p.charSlab, varChar{scope: v.Scope})
		p.charAddrs = append(p.charAddrs, addr)
		*r = int32(len(p.charSlab))
	}
	return &p.charSlab[*r-1]
}

// charBegin/charMet bracket one wait episode for the Table 2 stats.
func (p *atomicUnit) charBegin(w *WG, v Var, want int64) {
	c := p.charFor(v)
	seen := false
	for _, wv := range c.wantVals {
		if wv == want {
			seen = true
			break
		}
	}
	if !seen {
		c.wantVals = append(c.wantVals, want)
	}
	k := condKey{v.Addr, want}
	bumped := false
	for i := range c.conds {
		if c.conds[i].key == k {
			c.conds[i].n++
			if c.conds[i].n > c.maxWaiters {
				c.maxWaiters = c.conds[i].n
			}
			bumped = true
			break
		}
	}
	if !bumped {
		c.conds = append(c.conds, condStat{key: k, n: 1})
		if c.maxWaiters < 1 {
			c.maxWaiters = 1
		}
	}
	// Begin (or restart) w's episode with a zeroed update count.
	for i, id := range c.epWGs {
		if id == w.id {
			c.epCounts[i] = 0
			return
		}
	}
	c.epWGs = append(c.epWGs, w.id)
	c.epCounts = append(c.epCounts, 0)
}

func (p *atomicUnit) charMet(w *WG, v Var, want int64) {
	c := p.charFor(v)
	k := condKey{v.Addr, want}
	for i := range c.conds {
		if c.conds[i].key == k {
			if c.conds[i].n > 0 {
				c.conds[i].n--
			}
			break
		}
	}
	for i, id := range c.epWGs {
		if id == w.id {
			c.updatesPerMet = append(c.updatesPerMet, c.epCounts[i])
			// Episode order is immaterial (observeUpdate increments all,
			// charMet records only the finished one): swap-remove.
			last := len(c.epWGs) - 1
			c.epWGs[i], c.epCounts[i] = c.epWGs[last], c.epCounts[last]
			c.epWGs, c.epCounts = c.epWGs[:last], c.epCounts[:last]
			return
		}
	}
}

func (p *atomicUnit) observeUpdate(a mem.Addr) {
	r := p.charIdx.Ref(a.WordAligned())
	if r == nil {
		return
	}
	c := &p.charSlab[*r-1]
	for i := range c.epCounts {
		c.epCounts[i]++
	}
}

// charSummary aggregates the Table 2 columns over a whole run.
type charSummary struct {
	syncVars int
	stats    metrics.SyncVarStats
}

// characterization computes the run's charSummary.
func (p *atomicUnit) characterization() charSummary {
	var conds, maxW int
	var updSum float64
	var updN int
	// Iterate in address order: the float accumulation below is not
	// associative, so insertion order would leak into the Table 2 mean.
	addrs := append([]mem.Addr(nil), p.charAddrs...)
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		c := &p.charSlab[*p.charIdx.Ref(a)-1]
		conds += len(c.wantVals)
		if c.maxWaiters > maxW {
			maxW = c.maxWaiters
		}
		for _, u := range c.updatesPerMet {
			updSum += float64(u)
			updN++
		}
	}
	sum := charSummary{
		syncVars: len(p.charSlab),
		stats:    metrics.SyncVarStats{Conditions: conds, MaxWaiters: maxW},
	}
	if updN > 0 {
		sum.stats.UpdatesPerCond = updSum / float64(updN)
	}
	return sum
}

// OnAtomicApply subscribes f to every atomic's bank-service instant.
func (m *Machine) OnAtomicApply(f AtomicObserver) { m.atomics.subscribe(f) }

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
// bank-service time after observers — this is where waiting atomics
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
