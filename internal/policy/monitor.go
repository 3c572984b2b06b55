package policy

import (
	"awgsim/internal/core"
	"awgsim/internal/cp"
	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/syncmon"
	"awgsim/internal/trace"
)

// ArmStyle selects how a waiting WG's condition reaches the SyncMon.
type ArmStyle int

const (
	// ArmWaitInstr sends a separate wait instruction after the failed
	// atomic's response, leaving the window of vulnerability of Section
	// IV.C.iv: an update applied between the two is missed.
	ArmWaitInstr ArmStyle = iota
	// ArmWaitingAtomic registers the condition at the failing atomic's own
	// bank-service instant — the race-free waiting atomics of Section IV.D.
	ArmWaitingAtomic
)

// MonitorOptions configures a member of the monitor policy family.
type MonitorOptions struct {
	Name     string
	Arm      ArmStyle
	Sporadic bool                   // wake on any access, unchecked (MonRS)
	Selector syncmon.ResumeSelector // resume-count decision
	// StallPredict enables AWG's stall-period prediction: waiting WGs stall
	// for a predicted period and only context switch when it expires unmet.
	StallPredict bool
	// Fallback is the safety-net timeout after which a waiting WG retries
	// regardless of notifications (Mesa semantics demand rechecks anyway).
	// Zero disables it — demonstrating the MonR deadlock of Figure 10.
	Fallback event.Cycle
	// SyncMon / CP geometry; zero values take the paper defaults.
	SyncMonConfig *syncmon.Config
	CPConfig      *cp.Config
}

// Monitor is the unified monitor-family policy: MonRS-All, MonR-All,
// MonNR-All, MonNR-One, MinResume and AWG are all instances.
type Monitor struct {
	opt MonitorOptions
	m   *gpu.Machine
	sm  *syncmon.SyncMon
	cpp *cp.Processor

	pred      *core.Predictor // opt.Selector when it is AWG's predictor
	stallPred *core.StallPredictor

	freeTimers *timer // fired timer records, reused by the next arm
}

// NewMonRSAll builds the sporadic monitor with wait instructions.
func NewMonRSAll() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "MonRS-All", Arm: ArmWaitInstr, Sporadic: true,
		Selector: core.ResumeAll{}, Fallback: 50_000,
	})
}

// NewMonRAll builds the condition-checking monitor with wait instructions
// (window of vulnerability present; the fallback timeout papers over it).
func NewMonRAll() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "MonR-All", Arm: ArmWaitInstr,
		Selector: core.ResumeAll{}, Fallback: 50_000,
	})
}

// NewMonNRAll builds the waiting-atomic monitor resuming all waiters.
func NewMonNRAll() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "MonNR-All", Arm: ArmWaitingAtomic,
		Selector: core.ResumeAll{}, Fallback: 50_000,
	})
}

// NewMonNROne builds the waiting-atomic monitor resuming one waiter per
// met condition; the others resume on later updates or their timeout.
func NewMonNROne() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "MonNR-One", Arm: ArmWaitingAtomic,
		Selector: core.ResumeOne{}, Fallback: 25_000,
	})
}

// NewMinResume builds the oracle of Figure 9: waiting atomics with a
// resume count that never wakes a WG whose retry cannot succeed.
func NewMinResume() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "MinResume", Arm: ArmWaitingAtomic,
		Selector: core.Oracle{}, Fallback: 50_000,
	})
}

// NewAWG builds the paper's final design: waiting atomics, Bloom-filter
// resume-count prediction, and stall-period prediction.
func NewAWG() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "AWG", Arm: ArmWaitingAtomic,
		Selector:     core.NewPredictor(core.DefaultPredictorConfig()),
		StallPredict: true, Fallback: 25_000,
	})
}

// NewAWGNoStallPredict builds AWG without the stall-period predictor:
// waiting WGs context switch out immediately whenever the machine is
// oversubscribed, like MonNR, but keep the resume-count prediction. The
// ablation experiment quantifies what the stall predictor buys.
func NewAWGNoStallPredict() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "AWG-nostall", Arm: ArmWaitingAtomic,
		Selector: core.NewPredictor(core.DefaultPredictorConfig()),
		Fallback: 25_000,
	})
}

// NewAWGNoResumePredict builds AWG without the Bloom resume-count
// predictor (resume-all semantics) but with stall-period prediction — the
// other half of the ablation.
func NewAWGNoResumePredict() *Monitor {
	return NewMonitor(MonitorOptions{
		Name: "AWG-nopredict", Arm: ArmWaitingAtomic,
		Selector:     core.ResumeAll{},
		StallPredict: true, Fallback: 25_000,
	})
}

// NewAWGNoCache builds AWG with the SyncMon condition cache disabled, so
// every waiting condition spills to the Monitor Log and the CP carries the
// full scheduling state — the measurement configuration of Figure 13.
func NewAWGNoCache() *Monitor {
	smCfg := syncmon.DefaultConfig()
	smCfg.Sets = 0
	smCfg.WaitListSize = 0
	smCfg.LogCapacity = 16384
	return NewMonitor(MonitorOptions{
		Name: "AWG-nocache", Arm: ArmWaitingAtomic,
		Selector:     core.NewPredictor(core.DefaultPredictorConfig()),
		StallPredict: true, Fallback: 25_000,
		SyncMonConfig: &smCfg,
	})
}

// NewMonitor builds a custom monitor-family member.
func NewMonitor(opt MonitorOptions) *Monitor {
	if opt.Selector == nil {
		opt.Selector = core.ResumeAll{}
	}
	pred, _ := opt.Selector.(*core.Predictor)
	return &Monitor{opt: opt, pred: pred}
}

func (p *Monitor) Name() string { return p.opt.Name }

// Attach wires the SyncMon and CP onto the machine; an invalid SyncMon or
// CP geometry surfaces here as an error instead of a panic.
func (p *Monitor) Attach(m *gpu.Machine) error {
	p.m = m
	smCfg := syncmon.DefaultConfig()
	if p.opt.SyncMonConfig != nil {
		smCfg = *p.opt.SyncMonConfig
	}
	smCfg.Sporadic = p.opt.Sporadic
	var err error
	if p.sm, err = syncmon.New(smCfg, m, p.opt.Selector, p.onWake); err != nil {
		return err
	}
	cpCfg := cp.DefaultConfig()
	if p.opt.CPConfig != nil {
		cpCfg = *p.opt.CPConfig
	}
	if p.cpp, err = cp.New(cpCfg, m, p.sm.Log(), p.onWake); err != nil {
		return err
	}
	p.cpp.Start(func() bool { return !m.Done() })
	if p.opt.StallPredict {
		// Predictions are clamped between one L2 round trip and the
		// context-switch break-even: once the expected wait costs more
		// than saving and restoring the context, the WG should yield
		// immediately rather than squat on its CU.
		p.stallPred = core.NewStallPredictor(256, 3_000)
	}
	return nil
}

// Diagnose adds the SyncMon's and the CP's occupancy to a stalled run's
// diagnosis.
func (p *Monitor) Diagnose(d *metrics.Diagnosis) {
	d.SyncMonConditions = p.sm.Conditions()
	d.SyncMonWaiters = p.sm.Waiters()
	d.MonitorLogLen = p.sm.Log().Len()
	d.CPTableSize = p.cpp.TableSize()
}

// Tally adds AWG's predictor decisions, which the predictor counts
// itself, to the run's counters.
func (p *Monitor) Tally(c *metrics.Counters) {
	if p.pred != nil {
		c.PredictAll, c.PredictOne = p.pred.PredictedAll, p.pred.PredictedOne
		c.BloomResets = p.pred.Resets
	}
}

// StateBytes estimates the monitor hardware's simulated state: the
// SyncMon, the CP spill table and, when the policy carries them, the
// resume-count and stall-time predictors. gpu.Machine.StateBytes adds it
// to the machine's own.
func (p *Monitor) StateBytes() int {
	n := p.sm.StateBytes() + p.cpp.StateBytes()
	if p.pred != nil {
		n += p.pred.StateBytes()
	}
	if p.stallPred != nil {
		n += p.stallPred.StateBytes()
	}
	return n
}

// SyncMon exposes the attached monitor hardware; nil before Attach. Fault
// injection degrades its capacity through this accessor.
func (p *Monitor) SyncMon() *syncmon.SyncMon { return p.sm }

// CP exposes the attached Command Processor; nil before Attach.
func (p *Monitor) CP() *cp.Processor { return p.cpp }

// episode is a WG's wait state under the monitor family; the episode's
// operation lives on the WG (w.Episode()). A WG has at most one open wait
// episode, so each WG gets one episode, built on its first Wait and reset
// by every later one; the continuations a contended episode threads
// through thousands of retries are bound when it is built. gen numbers
// the WG's episodes: a timer that outlives the episode it was armed in
// carries that episode's gen (see timer), so it cannot act on a later
// one.
type episode struct {
	w            *gpu.WG
	gen          uint64
	waiting      bool
	justWoken    bool
	earlyWake    bool // notification arrived before enterWait ran
	registeredAt event.Cycle
	timer        *timer // the record this episode's timers share, if any

	reg     syncmon.RegisterResult // registration outcome of the attempt in flight
	lastRet int64                  // atomic return carried between the arm legs (ArmWaitInstr)
	retry   func()                 // p.attempt(ep)
	atBank  func(old, new int64)   // waiting-atomic registration leg
	onResp  func(ret int64)        // atomic response leg
	armBank func()                 // wait-instruction arm legs
	armResp func()
}

func (p *Monitor) Wait(w *gpu.WG) {
	ep, _ := w.PolicyData.(*episode)
	if ep == nil {
		ep = p.newEpisode(w)
		w.PolicyData = ep
	}
	ep.gen++
	ep.justWoken, ep.earlyWake, ep.registeredAt = false, false, 0
	p.attempt(ep)
}

// newEpisode builds w's episode and binds its continuations.
func (p *Monitor) newEpisode(w *gpu.WG) *episode {
	ep := &episode{w: w}
	ep.retry = func() { p.attempt(ep) }
	if p.opt.Arm == ArmWaitingAtomic {
		ep.atBank = func(old, _ int64) {
			if !ep.met(old) {
				// Race-free: same bank-service instant as the op itself.
				p.register(ep)
			}
		}
		ep.onResp = func(ret int64) { p.resolve(ep, ret, ep.reg) }
	} else {
		// Wait-instruction style: plain atomic, then a separate arm. Updates
		// applied between the atomic's service and the arm's service are
		// missed — the window of vulnerability.
		ep.armBank = func() { p.register(ep) }
		ep.armResp = func() { p.resolve(ep, ep.lastRet, ep.reg) }
		ep.onResp = func(ret int64) {
			if ep.met(ret) {
				p.resolve(ep, ret, -1)
				return
			}
			ep.lastRet = ret
			p.m.IssueArm(w, w.Episode().Var, ep.armBank, ep.armResp)
		}
	}
	return ep
}

// waitingIn reports whether episode gen is still open and registered.
func (ep *episode) waitingIn(gen uint64) bool { return ep.gen == gen && ep.waiting }

// met reports whether val satisfies the open episode's condition.
func (ep *episode) met(val int64) bool {
	op := ep.w.Episode()
	return op.Cmp.Test(val, op.Want)
}

// register files the open episode's condition with the SyncMon.
func (p *Monitor) register(ep *episode) {
	op := ep.w.Episode()
	ep.reg = p.sm.Register(ep.w.ID(), op.Var, op.Want, op.Cmp, syncmon.ClassOf(op.Op))
}

// attempt issues the synchronization atomic once and routes the outcome.
func (p *Monitor) attempt(ep *episode) {
	p.m.SetStalled(ep.w, false)
	ep.reg = syncmon.RegisterResult(-1)
	op := ep.w.Episode()
	if p.opt.Arm == ArmWaitingAtomic {
		p.m.IssueAtomic(ep.w, op.Var, op.Op, op.A, op.B, ep.atBank, ep.onResp)
		return
	}
	p.m.IssueAtomic(ep.w, op.Var, op.Op, op.A, op.B, nil, ep.onResp)
}

// resolve handles an attempt's response given its registration outcome.
func (p *Monitor) resolve(ep *episode, ret int64, reg syncmon.RegisterResult) {
	if ep.met(ret) {
		if ep.justWoken && p.stallPred != nil {
			p.stallPred.Record(ep.w.Episode().Var.Addr.WordAligned(), p.m.Engine().Now()-ep.registeredAt)
		}
		p.m.EndWait(ep.w, ret)
		return
	}
	if ep.justWoken {
		// A notification resumed us but the retry failed: the wake was
		// wasted (sporadic hint, or contention stole the acquire).
		p.m.Count.WastedResumes++
		ep.justWoken = false
	}
	switch reg {
	case syncmon.Registered, syncmon.Spilled:
		if ep.earlyWake {
			// The condition was met (and our registration consumed) in the
			// window between the atomic's bank service and its response
			// reaching the CU; the resume message is already here, so retry
			// instead of waiting.
			ep.earlyWake = false
			ep.justWoken = true
			p.m.Engine().After(p.m.PollOverhead(), ep.retry)
			return
		}
		p.enterWait(ep)
	default: // Rejected (log full) — Mesa semantics: keep retrying.
		p.m.Engine().After(p.m.PollOverhead()+64, ep.retry)
	}
}

// enterWait parks the registered waiter: stalled on its CU, or context
// switched out when the machine is oversubscribed (after AWG's predicted
// stall period, when enabled).
func (p *Monitor) enterWait(ep *episode) {
	w := ep.w
	ep.waiting = true
	ep.registeredAt = p.m.Engine().Now()
	p.m.Count.Stalls++
	p.m.SetStalled(w, true)

	if p.m.Oversubscribed() {
		if p.stallPred != nil {
			// AWG: stall for the predicted period first; switch out only
			// if the condition is still unmet when it expires.
			t := p.timerFor(ep)
			if t.expireFn == nil {
				t.expireFn = t.expire
			}
			d := p.stallPred.Predict(w.Episode().Var.Addr.WordAligned())
			p.m.Engine().After(d, t.expireFn)
		} else {
			p.m.SwitchOut(w)
		}
	}

	if p.opt.Fallback > 0 {
		t := p.timerFor(ep)
		if t.fireFn == nil {
			t.fireFn = t.fire
		}
		d := p.opt.Fallback + event.Cycle(p.m.Jitter(uint64(p.opt.Fallback/4+1)))
		p.m.Engine().After(d, t.fireFn)
	}
}

// timeOut ends a registered wait without a notification: the registration
// is withdrawn and the WG retries. A waiter is registered in exactly one
// place: the SyncMon cache or, spilled, the log/CP side. After a cache hit
// the CP has nothing to withdraw, so only a miss goes on to it.
func (p *Monitor) timeOut(ep *episode) {
	w := ep.w
	op := w.Episode()
	if !p.sm.Unregister(w.ID(), op.Var, op.Want, op.Cmp) {
		p.cpp.Unregister(w.ID(), op.Var, op.Want, op.Cmp)
	}
	p.m.Count.Timeouts++
	p.m.Trace(w, trace.TimeoutFire)
	ep.waiting = false
	p.m.Deliver(w, ep.retry)
}

// timer is the record behind a Monitor timer that may outlive the
// episode that armed it: a fallback timeout, the CP condition reload a
// fallback becomes for a switched-out waiter, or AWG's stall-period
// expiry. It carries its episode's gen, and a callback that fires once
// that episode has ended does nothing. An episode's timers share one
// record, counted by pending; the record returns to the Monitor's free
// list when the last of them has fired, so records live and die with the
// machine. A record binds each callback on first use.
type timer struct {
	p       *Monitor
	ep      *episode
	gen     uint64
	pending int // callbacks on the calendar, or a reload in flight
	next    *timer

	fireFn, expireFn func()
	loadFn           func(val int64)
}

// timerFor returns the record for ep's current episode, counting one more
// pending callback on it.
func (p *Monitor) timerFor(ep *episode) *timer {
	t := ep.timer
	if t == nil || t.gen != ep.gen {
		if t = p.freeTimers; t == nil {
			t = &timer{p: p}
		} else {
			p.freeTimers, t.next = t.next, nil
		}
		t.ep, t.gen = ep, ep.gen
		ep.timer = t
	}
	t.pending++
	return t
}

// fired retires one of t's callbacks, freeing t after the last, and
// reports whether t's episode is still waiting.
func (t *timer) fired() bool {
	ep := t.ep
	live := ep.waitingIn(t.gen)
	if t.pending--; t.pending == 0 {
		if ep.timer == t {
			ep.timer = nil
		}
		t.ep, t.next, t.p.freeTimers = nil, t.p.freeTimers, t
	}
	return live
}

// fire is the fallback timeout.
func (t *timer) fire() {
	p, ep := t.p, t.ep
	if ep.waitingIn(t.gen) && !ep.w.Resident() {
		// Context-switched waiter: switching it in just to poll would
		// thrash the dispatcher, so the CP re-checks the condition on its
		// behalf with an L2 read and restores the WG only if the condition
		// actually holds. The callback stays pending through the reload.
		if t.loadFn == nil {
			t.loadFn = t.load
		}
		p.m.IssueAtomic(nil, gpu.GlobalVar(ep.w.Episode().Var.Addr), gpu.OpLoad, 0, 0, nil, t.loadFn)
		return
	}
	if t.fired() {
		// Stalled on the CU: withdraw the registration and recheck
		// ourselves ("eventually the stalled WGs will time out and be
		// activated").
		p.timeOut(ep)
	}
}

// load is the CP's condition reload for a switched-out waiter.
func (t *timer) load(val int64) {
	p, ep := t.p, t.ep
	if ep.waitingIn(t.gen) && !ep.met(val) {
		p.m.Engine().After(p.opt.Fallback, t.fireFn)
		return
	}
	if t.fired() {
		ep.justWoken = true
		p.timeOut(ep)
	}
}

// expire ends AWG's predicted stall period: a waiter whose condition is
// still unmet switches out if others want its resources.
func (t *timer) expire() {
	p, w := t.p, t.ep.w
	if t.fired() && w.Resident() && p.m.Oversubscribed() {
		p.m.SwitchOut(w)
	}
}

// onWake receives SyncMon and CP notifications.
func (p *Monitor) onWake(id gpu.WGID, addr mem.Addr, want int64, met bool) {
	w := p.m.WGs()[id]
	if op := w.Episode(); op == nil || op.Var.Addr.WordAligned() != addr || op.Want != want {
		return // stale notification; the episode already ended
	}
	ep := w.PolicyData.(*episode)
	if !ep.waiting {
		// The waiting atomic's response is still in flight back to the CU:
		// latch the resume so resolve() retries instead of waiting.
		ep.earlyWake = true
		p.m.Count.Resumes++
		return
	}
	ep.waiting = false
	ep.justWoken = true
	p.m.Count.Resumes++
	p.m.Trace(w, trace.Resume)
	if p.stallPred != nil && met {
		p.stallPred.Record(addr, p.m.Engine().Now()-ep.registeredAt)
	}
	p.m.Deliver(w, ep.retry)
}
