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
	m.OnAtomicApply(p.observe)
	cpCfg := cp.DefaultConfig()
	if p.opt.CPConfig != nil {
		cpCfg = *p.opt.CPConfig
	}
	if p.cpp, err = cp.New(cpCfg, m, p.sm.Log(), p.onWake); err != nil {
		return err
	}
	p.cpp.Start()
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
// by every later one. gen numbers the WG's episodes. The episode's
// continuations are pooled tasks carrying the episode in Env[0] and its
// gen in I[0] (see task); a timer that outlives the episode it was armed
// in finds the episode's gen moved on and does nothing.
type episode struct {
	p            *Monitor
	w            *gpu.WG
	gen          uint64
	waiting      bool
	justWoken    bool
	earlyWake    bool // notification arrived before enterWait ran
	registeredAt event.Cycle
	reg          syncmon.RegisterResult // registration outcome of the attempt in flight
}

func (p *Monitor) Wait(w *gpu.WG) {
	ep, _ := w.PolicyData.(*episode)
	if ep == nil {
		ep = &episode{p: p, w: w}
		w.PolicyData = ep
	}
	ep.gen++
	ep.justWoken, ep.earlyWake, ep.registeredAt = false, false, 0
	p.attempt(ep)
}

// task returns an unscheduled task calling fn with ep in Env[0] and the
// open episode's gen in I[0].
func (ep *episode) task(fn event.TaskFunc) *event.Task {
	t := ep.p.m.Engine().NewTask(fn)
	t.Env[0] = ep
	t.I[0] = int64(ep.gen)
	return t
}

// after schedules fn as an episode task d cycles from now.
func (ep *episode) after(d event.Cycle, fn event.TaskFunc) {
	ep.p.m.Engine().AfterTask(d, ep.task(fn))
}

// episodeOf unpacks an episode task: the episode, and the gen it was made
// in.
func episodeOf(t *event.Task) (*episode, uint64) {
	return t.Env[0].(*episode), uint64(t.I[0])
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

// observe is the machine's atomic-apply hook: the SyncMon's monitored-bit
// check, then, under waiting atomics, the registration of a failing
// attempt's condition at the attempt's own bank-service instant, which is
// what makes it race-free. While an episode is open, a WG's only atomics
// are its attempts, one in flight at a time, so any atomic of a WG with an
// open episode is that episode's attempt.
func (p *Monitor) observe(by *gpu.WG, v gpu.Var, op gpu.AtomicOp, old, new int64) {
	p.sm.Observe(by, v, op, old, new)
	if p.opt.Arm != ArmWaitingAtomic || by == nil || by.Episode() == nil {
		return
	}
	if ep := by.PolicyData.(*episode); !ep.met(old) {
		p.register(ep)
	}
}

// attempt issues the synchronization atomic once; runAttemptResp takes
// the response.
func (p *Monitor) attempt(ep *episode) {
	p.m.SetStalled(ep.w, false)
	ep.reg = syncmon.RegisterResult(-1)
	op := ep.w.Episode()
	p.m.IssueAtomic(ep.w, op.Var, op.Op, op.A, 0, ep.task(runAttemptResp))
}

// runRetry attempts again.
func runRetry(t *event.Task) {
	ep, _ := episodeOf(t)
	ep.p.attempt(ep)
}

// runAttemptResp routes an attempt's outcome. A waiting atomic registered
// at bank-service time (observe), so its response resolves the attempt.
// Under wait instructions, a failed attempt sends a separate arm: updates
// applied between the atomic's service and the arm's are missed — the
// window of vulnerability. The arm's response task carries the attempt's
// return value in I[1].
func runAttemptResp(t *event.Task) {
	ep, _ := episodeOf(t)
	p, ret := ep.p, t.I[gpu.AtomicRet]
	if p.opt.Arm == ArmWaitInstr && !ep.met(ret) {
		resp := ep.task(runArmResp)
		resp.I[1] = ret
		p.m.IssueArm(ep.w, ep.w.Episode().Var, ep.task(runArmBank), resp)
		return
	}
	p.resolve(ep, ret, ep.reg)
}

// runArmBank registers the condition at the arm's bank-service instant.
func runArmBank(t *event.Task) {
	ep, _ := episodeOf(t)
	ep.p.register(ep)
}

// runArmResp resolves the attempt once its arm's response is back.
func runArmResp(t *event.Task) {
	ep, _ := episodeOf(t)
	ep.p.resolve(ep, t.I[1], ep.reg)
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
			ep.after(p.m.PollOverhead(), runRetry)
			return
		}
		p.enterWait(ep)
	default: // Rejected (log full) — Mesa semantics: keep retrying.
		ep.after(p.m.PollOverhead()+64, runRetry)
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
			ep.after(p.stallPred.Predict(w.Episode().Var.Addr.WordAligned()), runStallExpiry)
		} else {
			p.m.SwitchOut(w)
		}
	}

	if p.opt.Fallback > 0 {
		d := p.opt.Fallback + event.Cycle(p.m.Jitter(uint64(p.opt.Fallback/4+1)))
		ep.after(d, runFallback)
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
	p.m.Deliver(w, ep.task(runRetry))
}

// The Monitor's timers — the fallback timeout, the CP condition reload a
// fallback becomes for a switched-out waiter, and AWG's stall-period
// expiry — can outlive the episode that armed them. Each acts only while
// its episode is still waiting.

// runFallback is the fallback timeout.
func runFallback(t *event.Task) {
	ep, gen := episodeOf(t)
	if !ep.waitingIn(gen) {
		return
	}
	p := ep.p
	if !ep.w.Resident() {
		// Context-switched waiter: switching it in just to poll would
		// thrash the dispatcher, so the CP re-checks the condition on its
		// behalf with an L2 read and restores the WG only if the condition
		// actually holds.
		p.m.IssueAtomic(nil, gpu.GlobalVar(ep.w.Episode().Var.Addr), gpu.OpLoad, 0, 0, ep.task(runReload))
		return
	}
	// Stalled on the CU: withdraw the registration and recheck ourselves
	// ("eventually the stalled WGs will time out and be activated").
	p.timeOut(ep)
}

// runReload takes the CP's condition reload for a switched-out waiter.
func runReload(t *event.Task) {
	ep, gen := episodeOf(t)
	if !ep.waitingIn(gen) {
		return
	}
	if !ep.met(t.I[gpu.AtomicRet]) {
		ep.after(ep.p.opt.Fallback, runFallback)
		return
	}
	ep.justWoken = true
	ep.p.timeOut(ep)
}

// runStallExpiry ends AWG's predicted stall period: a waiter whose
// condition is still unmet switches out if others want its resources.
func runStallExpiry(t *event.Task) {
	ep, gen := episodeOf(t)
	if p := ep.p; ep.waitingIn(gen) && ep.w.Resident() && p.m.Oversubscribed() {
		p.m.SwitchOut(ep.w)
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
	p.m.Deliver(w, ep.task(runRetry))
}
