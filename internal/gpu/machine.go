package gpu

import (
	"cmp"
	"fmt"
	"slices"

	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/trace"
)

// Policy lowers synchronization wait episodes. Exactly one policy is active
// per machine; the paper's design space (Baseline, Sleep, Timeout, the
// monitor family, AWG) is expressed entirely through this interface.
//
// The machine finds four optional methods by type assertion: StateBytes()
// int sizes the policy's monitor hardware for Machine.StateBytes,
// Diagnose(*metrics.Diagnosis) adds its occupancy to a stalled run's
// diagnosis, Tally(*metrics.Counters) adds the counts it keeps itself to
// the run's result, and NeverYields() bool, read once after Attach and
// true for a policy under which a waiting WG keeps its slot for the whole
// episode, lets the deadlock proof rule out a slot freeing.
type Policy interface {
	// Name identifies the policy in results ("Baseline", "AWG", ...).
	Name() string
	// Attach is called once before the kernel launches, giving the policy
	// access to machine services (and letting it subscribe to atomic
	// updates for its monitors). A non-nil error (e.g. an invalid SyncMon
	// or CP geometry) fails machine construction.
	Attach(m *Machine) error
	// Wait runs w's open wait episode, whose operation w.Episode()
	// reports: the program needs the atomic (OpLoad for pure waits,
	// OpExch for lock acquires) retried until the value it returns
	// satisfies the episode's condition. The policy decides what happens
	// between attempts — busy polling, backoff, timed stalls, monitor
	// arming, waiting atomics, context switches — and finally calls
	// Machine.EndWait exactly once with the observed value, in an engine
	// event.
	Wait(w *WG)
}

// Machine is the whole simulated GPU. It owns the event engine, the memory
// hierarchy, the WG interpreter frames and their device-op issue, and the
// WG context saves and restores (context.go). Two collaborators do
// everything else: the dispatcher (scheduler.go) places WGs onto CUs, and
// the atomic pipeline (atomics.go) services atomics at the L2.
type Machine struct {
	cfg  Config
	eng  *event.Engine
	mem  *mem.System
	spec *KernelSpec
	pol  Policy

	sched   *scheduler
	atomics *atomicUnit

	wgs      []*WG // primary kernel's WGs (results, charz)
	primary  kernelRun
	injected int   // kernels InjectKernel added
	allWGs   []*WG // every WG on the machine, indexed by WGID

	// Count is the run's counters, bumped in place by the machine, the
	// policy and its monitor hardware; the Result embeds it.
	Count metrics.Counters

	tracer *trace.Recorder

	completed    int
	maxWait      uint64
	lastDoneAt   event.Cycle
	lastProgress event.Cycle
	deadlocked   bool
	ran          bool

	// watchFrom is the cycle Prepare armed the watchdog at, and watchTick
	// the number of its last tick booked: tick k fires at watchFrom +
	// k*ProgressWindow/watchTicks.
	watchFrom event.Cycle
	watchTick uint64

	// restoresDue and launchesDue count the CU restores (ScheduleCU) and
	// kernel launches (InjectKernel) still on the calendar: each can make
	// a WG resident, so the deadlock proof waits them out.
	restoresDue, launchesDue int

	// neverYields is the policy's NeverYields(), read once after Attach.
	neverYields bool

	diag *metrics.Diagnosis

	// irOps accumulates inline-interpreted IR ops for ExecStats, flushed to
	// the package counter at FinishRun.
	irOps uint64

	// spareParked is the empty slice runParked gives the next WG it
	// drains, so parked slices keep their capacity across switch-ins
	// instead of regrowing for every park.
	spareParked []*event.Task

	jitterState uint64
}

// NewMachine builds a machine for one kernel launch under one policy.
func NewMachine(cfg Config, memCfg mem.Config, spec *KernelSpec, pol Policy) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("gpu: nil policy")
	}
	eng := event.NewPooled()
	ms, err := mem.NewSystem(memCfg, eng, cfg.NumCUs)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		eng:  eng,
		mem:  ms,
		spec: spec,
		pol:  pol,
	}
	m.sched = newScheduler(m)
	m.atomics = newAtomicUnit(len(spec.IR.Pool))
	// Build the WGs, in one slab, with their static home groups: WGs are
	// assigned to scheduling groups in dispatch order, MaxWGsPerCU per
	// group, wrapping over the CUs — the blocked placement the sequential
	// dispatcher of Section II.D produces.
	n, perCU := spec.NumWGs, cfg.MaxWGsPerCU
	slab := make([]WG, n)
	m.wgs = make([]*WG, n)
	m.primary = kernelRun{spec: spec, wgs: m.wgs}
	for i := range slab {
		home := (i / perCU) % cfg.NumCUs
		slab[i] = WG{
			id:    WGID(i),
			spec:  spec,
			kr:    &m.primary,
			home:  home,
			inGrp: (i/perCU)/cfg.NumCUs*perCU + i%perCU,
			grpSz: blockedGroupSize(n, perCU, cfg.NumCUs, home),
			state: StatePending,
			cu:    NoCU,
		}
		m.wgs[i] = &slab[i]
	}
	// allWGs shares wgs' array until InjectKernel appends, which copies
	// it: wgs has no spare capacity.
	m.allWGs = m.wgs
	m.sched.enqueuePending(m.wgs)
	if err := pol.Attach(m); err != nil {
		return nil, fmt.Errorf("gpu: attaching policy %s: %w", pol.Name(), err)
	}
	if p, ok := pol.(interface{ NeverYields() bool }); ok {
		m.neverYields = p.NeverYields()
	}
	return m, nil
}

// blockedGroupSize reports how many of n WGs the blocked placement puts in
// group g: blocks of perCU consecutive WGs go to the ncu groups in turn,
// and the last block may be short.
func blockedGroupSize(n, perCU, ncu, g int) int {
	blocks, rest := n/perCU, n%perCU
	size := blocks / ncu * perCU
	switch {
	case g < blocks%ncu:
		size += perCU
	case g == blocks%ncu:
		size += rest
	}
	return size
}

// InjectKernel launches another kernel at cycle `at` with the given
// priority (higher preempts lower). If the machine lacks free resources
// when the kernel arrives, enough resident lower-priority WGs are
// force-preempted (context switched out, queued ready) to make room —
// the kernel-level preemptive scheduling current GPUs already perform.
// The injected kernel's WGs run under the machine's active policy.
func (m *Machine) InjectKernel(spec *KernelSpec, at event.Cycle, priority int) (KernelHandle, error) {
	if err := spec.validate(); err != nil {
		return KernelHandle{}, err
	}
	if m.ran {
		return KernelHandle{}, fmt.Errorf("gpu: InjectKernel after Run started; schedule before Run")
	}
	kr := &kernelRun{spec: spec, priority: priority}
	base := len(m.allWGs)
	// Injected WGs take round-robin homes, so the first NumWGs%NumCUs groups
	// hold one WG more than the rest.
	ncu := m.cfg.NumCUs
	for i := 0; i < spec.NumWGs; i++ {
		grpSz := spec.NumWGs / ncu
		if i%ncu < spec.NumWGs%ncu {
			grpSz++
		}
		w := &WG{
			id:    WGID(base + i),
			spec:  spec,
			kr:    kr,
			home:  i % ncu,
			grpSz: grpSz,
			inGrp: i / ncu,
			state: StatePending,
			cu:    NoCU,
		}
		kr.wgs = append(kr.wgs, w)
	}
	m.allWGs = append(m.allWGs, kr.wgs...)
	m.injected++
	m.launchesDue++
	t := m.eng.NewTask(runKernelLaunch)
	t.Env[0] = m
	t.Env[1] = kr
	m.eng.AtTask(at, t)
	return KernelHandle{kr: kr}, nil
}

// runKernelLaunch fires at a kernel's injection time: its WGs enqueue
// pending, a positive-priority kernel evicts residents for room, and the
// dispatcher runs.
func runKernelLaunch(t *event.Task) {
	m := t.Env[0].(*Machine)
	kr := t.Env[1].(*kernelRun)
	kr.launched = m.eng.Now()
	m.launchesDue--
	m.sched.enqueuePending(kr.wgs)
	if kr.priority > 0 {
		m.sched.evictForRoom(kr)
	}
	m.sched.kick()
}

// Engine exposes the event engine (harnesses use it to schedule the
// mid-kernel preemption of the oversubscribed experiment).
func (m *Machine) Engine() *event.Engine { return m.eng }

// Policy exposes the attached policy (fault injection type-asserts it to
// reach monitor hardware when present).
func (m *Machine) Policy() Policy { return m.pol }

// Mem exposes the memory hierarchy.
func (m *Machine) Mem() *mem.System { return m.mem }

// Config reports the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// PollOverhead reports the configured busy-wait retry overhead in cycles.
// Retry loops fire this per attempt; it reads one field where Config()
// would copy the whole struct.
func (m *Machine) PollOverhead() event.Cycle { return event.Cycle(m.cfg.PollOverhead) }

// CycleLimit reports the configured per-run cycle cap (0 = none), for
// harness advance loops that test it every slice.
func (m *Machine) CycleLimit() event.Cycle { return event.Cycle(m.cfg.MaxCycles) }

// StateBytes estimates the machine's simulated state — the engine
// calendar, the memory hierarchy, scheduler queues and CU pools, every
// WG's runtime state and interpreter frame, the Table 2
// characterization, and the policy's monitor hardware when it reports
// one. The fleet layer charges a migration's transplant pause by it.
func (m *Machine) StateBytes() int {
	n := 256 + m.eng.StateBytes() + m.mem.StateBytes()
	n += 24 * (1 + m.injected)
	n += 16 * (len(m.sched.pending) + len(m.sched.readyQueue))
	n += 16 * len(m.sched.cus)
	for _, w := range m.allWGs {
		n += 160 + 8*len(w.parked)
		if f := w.frame; f != nil {
			n += 40 + 8*len(f.regs)
		}
	}
	n += m.atomics.stateBytes()
	if p, ok := m.pol.(interface{ StateBytes() int }); ok {
		n += p.StateBytes()
	}
	return n
}

// ReleaseBuffers recycles the machine's engine and memory tag arrays into
// their package pools for the next machine this process builds. It must be
// the caller's last use of the machine: the engine and the memory system
// are invalid afterward.
func (m *Machine) ReleaseBuffers() {
	m.mem.ReleaseBuffers()
	m.eng.Recycle()
}

// Spec reports the kernel being run.
func (m *Machine) Spec() *KernelSpec { return m.spec }

// WGs exposes every work-group runtime on the machine, indexed by WGID
// (read-only use by policies/tests).
func (m *Machine) WGs() []*WG { return m.allWGs }

// SetTracer attaches an optional timeline recorder; nil disables tracing.
func (m *Machine) SetTracer(r *trace.Recorder) { m.tracer = r }

// Trace records a timeline event for w when tracing is enabled. Policies
// use it for their resume/timeout annotations.
func (m *Machine) Trace(w *WG, kind trace.Kind) {
	if m.tracer != nil && w != nil {
		m.tracer.Record(m.eng.Now(), int(w.id), kind)
	}
}

// SeedJitter perturbs the deterministic jitter stream. Runs with the same
// seed are bit-identical; different seeds de-synchronize policy timeouts
// without giving up replayability. Call before Run.
func (m *Machine) SeedJitter(seed uint64) { m.jitterState = seed }

// Jitter returns a deterministic pseudo-random value in [0, n), varying per
// call; policies use it to de-synchronize timeouts without breaking replay.
func (m *Machine) Jitter(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	m.jitterState++
	return hashutil.Mix64(m.jitterState) % n
}

// progress records a forward-progress event for the deadlock watchdog.
func (m *Machine) progress() { m.lastProgress = m.eng.Now() }

// SetStalled marks whether w is parked without issuing instructions. A
// stalled WG frees its CU's instruction-issue bandwidth — the reason the
// paper's waiting policies speed up even co-resident WGs, while busy
// waiters steal issue slots from critical-section holders.
func (m *Machine) SetStalled(w *WG, stalled bool) {
	if stalled && !w.stalled {
		m.Trace(w, trace.StallBegin)
	}
	w.stalled = stalled
}

// Done reports whether every WG of every kernel has completed.
func (m *Machine) Done() bool { return m.completed == len(m.allWGs) }

// CompletedWGs reports how many WGs have run to completion so far — the
// fleet layer's SLO checker samples it between slices as its forward-
// progress signal.
func (m *Machine) CompletedWGs() int { return m.completed }

// Deadlocked reports whether the watchdog, the deadlock proof or Halt has
// declared the run dead.
func (m *Machine) Deadlocked() bool { return m.deadlocked }

// Halt declares an unfinished run dead for an external reason — the fleet
// layer drains surviving workloads this way when device churn drops the
// fleet below its survivable-capacity floor — capturing the same
// structured diagnosis the watchdog would and stopping the engine. A later
// FinishRun keeps this diagnosis instead of classifying the stop itself.
// No-op on a completed or already-diagnosed machine.
func (m *Machine) Halt(reason string) {
	if m.Done() || m.deadlocked {
		return
	}
	m.deadlocked = true
	m.diag = m.diagnose(reason)
	m.eng.Stop()
}

// --- WG execution ---

// start launches a pending WG on cu for the first time.
func (m *Machine) start(w *WG, cu *computeUnit) {
	cu.host(w, m.cfg.SIMDWidth)
	w.state = StateResident
	m.eng.AtTask(m.sched.dispatchSlot(), m.wgTask(runStartBody, w))
}

// wgTask returns a task calling fn with the machine in Env[0] and w in
// Env[1], the layout every WG leg's callee unpacks.
func (m *Machine) wgTask(fn event.TaskFunc, w *WG) *event.Task {
	t := m.eng.NewTask(fn)
	t.Env[0] = m
	t.Env[1] = w
	return t
}

// runStartBody fires at a WG's dispatch slot: the WG gets its interpreter
// frame and advances to its first device op.
func runStartBody(t *event.Task) {
	m := t.Env[0].(*Machine)
	w := t.Env[1].(*WG)
	w.started = true
	w.phaseStart = m.eng.Now()
	m.progress()
	m.Trace(w, trace.Start)
	w.frame = newIRFrame(w)
	m.advanceIR(w)
}

// runCompute advances w through cycles of computation, re-sampling the
// CU's issue-slot contention in chunks so that neighbours stalling or
// resuming mid-computation changes the rate — busy pollers slow a
// critical-section holder for exactly as long as they keep polling.
func (m *Machine) runCompute(w *WG, cycles event.Cycle) {
	chunk := cycles / 4
	// Chunks must also stay under the watchdog window (progress is marked
	// per chunk) and re-sample issue contention often enough.
	if limit := event.Cycle(m.cfg.ProgressWindow / 8); chunk > limit && limit > 0 {
		chunk = limit
	}
	m.computeStep(w, cycles, chunk)
}

// computeStep runs one contention-sampled chunk and schedules the next via
// a pooled task — this chain is the CU-issue hot path.
func (m *Machine) computeStep(w *WG, remaining, chunk event.Cycle) {
	// Executing real work is forward progress: only synchronization
	// stalls may trip the deadlock watchdog. (Busy-wait polling is
	// atomics, not Compute, so spinning never counts.)
	m.progress()
	if remaining == 0 {
		m.step(w, 0)
		return
	}
	c := chunk
	if c == 0 || c > remaining {
		c = remaining
	}
	t := m.wgTask(runComputeChunk, w)
	t.I[0] = int64(remaining - c)
	t.I[1] = int64(chunk)
	m.eng.AfterTask(c*m.sched.issueFactor(w), t)
}

func runComputeChunk(t *event.Task) {
	t.Env[0].(*Machine).computeStep(t.Env[1].(*WG), event.Cycle(t.I[0]), event.Cycle(t.I[1]))
}

// runLoadResp completes a load: the value is read at response time.
func runLoadResp(t *event.Task) {
	m := t.Env[0].(*Machine)
	m.step(t.Env[1].(*WG), m.mem.Read(mem.Addr(t.I[0])))
}

// runStepEmpty resumes a WG whose op returns nothing (stores, barriers).
func runStepEmpty(t *event.Task) {
	t.Env[0].(*Machine).step(t.Env[1].(*WG), 0)
}

// runStepResp resumes a WG with the value in I[AtomicRet]: its atomic's
// response, or a delivery parked while the WG was away.
func runStepResp(t *event.Task) {
	t.Env[0].(*Machine).step(t.Env[1].(*WG), t.I[AtomicRet])
}

// runParked fires, in park order, the tasks queued while the WG was away,
// inside the event that made it resident. A task may park again, so the
// WG takes the machine's spare slice for new parks while the loop drains
// its old one, which becomes the spare.
func (m *Machine) runParked(w *WG) {
	if len(w.parked) == 0 {
		return
	}
	parked := w.parked
	w.parked, m.spareParked = m.spareParked[:0], nil
	for _, t := range parked {
		m.eng.Fire(t)
	}
	clear(parked)
	m.spareParked = parked[:0]
}

// step completes w's in-flight device op with its result value and
// advances the frame to the next one; if the WG lost residency, the
// delivery parks until it returns.
func (m *Machine) step(w *WG, val int64) {
	if !w.Resident() {
		t := m.wgTask(runStepResp, w)
		t.I[AtomicRet] = val
		w.park(t)
		return
	}
	if f := w.frame; f.dst >= 0 {
		f.regs[f.dst] = val
	}
	m.advanceIR(w)
}

// issueLoad sends a plain load through w's L1.
func (m *Machine) issueLoad(w *WG, a mem.Addr) {
	respAt := m.mem.LoadTiming(int(w.cu), a)
	t := m.wgTask(runLoadResp, w)
	t.I[0] = int64(a)
	m.eng.AtTask(respAt, t)
}

// issueStore writes v through w's L1.
func (m *Machine) issueStore(w *WG, a mem.Addr, v int64) {
	respAt := m.mem.StoreTiming(int(w.cu), a)
	m.mem.Write(a, v)
	m.eng.AtTask(respAt, m.wgTask(runStepEmpty, w))
}

// issueAtomic sends one atomic to v's synchronization point.
func (m *Machine) issueAtomic(w *WG, v Var, op AtomicOp, a, b int64) {
	m.IssueAtomic(w, v, op, a, b, m.wgTask(runStepResp, w))
}

// syncThreads runs the intra-WG barrier, whose cost grows with the
// wavefronts it gathers.
func (m *Machine) syncThreads(w *WG) {
	wf := event.Cycle(w.spec.Wavefronts(m.cfg.SIMDWidth))
	m.eng.AfterTask(event.Cycle(m.cfg.SyncThreadsLatency)*wf, m.wgTask(runStepEmpty, w))
}

// beginWait opens a wait episode on w with operation op and hands it to
// the policy, which retries op until the value it returns satisfies the
// condition (pure waits are OpLoad polls; lock acquires are exchanges).
// The WG holds the operation for the episode's life.
func (m *Machine) beginWait(w *WG, op WaitOp) {
	now := m.eng.Now()
	w.setPhase(now, true)
	w.wait, w.waitBegan = op, now
	m.atomics.charBegin(w, op.Var, op.Want)
	m.pol.Wait(w)
}

// EndWait closes w's open wait episode with the value the policy's last
// retry observed and resumes the WG's frame. A policy calls it exactly
// once per episode, in an engine event.
func (m *Machine) EndWait(w *WG, observed int64) {
	now := m.eng.Now()
	m.atomics.charMet(w)
	w.metAttempt = false
	if d := uint64(now - w.waitBegan); d > m.maxWait {
		m.maxWait = d
	}
	w.setPhase(now, false)
	m.progress()
	m.Trace(w, trace.Acquired)
	m.step(w, observed)
}

// finish retires a WG that ran off the end of its program.
func (m *Machine) finish(w *WG) {
	now := m.eng.Now()
	m.Trace(w, trace.Finish)
	w.closePhase(now)
	w.finished = true
	w.state = StateDone
	m.sched.cu(w.cu).release(w, m.cfg.SIMDWidth)
	m.completed++
	w.kr.completed++
	if w.kr.completed == len(w.kr.wgs) {
		w.kr.doneAt = now
	}
	m.lastDoneAt = now
	m.progress()
	m.sched.kick()
}

// diagnose captures the machine's synchronization state for a run that
// failed to finish: every unfinished WG, the conditions they block on,
// queue occupancies, and the policy's monitor occupancy when it reports
// one.
func (m *Machine) diagnose(reason string) *metrics.Diagnosis {
	d := &metrics.Diagnosis{
		Reason:       reason,
		AtCycle:      uint64(m.eng.Now()),
		LastProgress: uint64(m.lastProgress),
		Completed:    m.completed,
		Total:        len(m.allWGs),
		EnabledCUs:   m.sched.enabledCUs(),
		TotalCUs:     m.cfg.NumCUs,
	}
	d.PendingWGs, d.ReadyWGs = m.sched.queueLens()
	now := m.eng.Now()
	// A run that failed to finish has an unfinished WG, so d.WGs is never
	// left empty. Each blocked WG is one (condition, id) record; sorted,
	// a condition's records are a run with its waiters in ascending id.
	type cond struct {
		addr uint64
		want int64
		// cmp completes the key: (addr, want) alone ties e.g. one WG's
		// `== 1` against another's `>= 1` on the same word.
		cmp Cmp
	}
	type waiter struct {
		c  cond
		id int
	}
	d.WGs = make([]metrics.WGDiag, 0, len(m.allWGs)-m.completed)
	var waits []waiter
	for _, w := range m.allWGs {
		if w.finished {
			continue
		}
		wd := metrics.WGDiag{ID: int(w.id), State: w.state.String(), CU: int(w.cu)}
		if op := w.Episode(); op != nil {
			wd.Blocked = true
			wd.Addr = uint64(op.Var.Addr)
			wd.Want = op.Want
			wd.Cmp = op.Cmp.String()
			wd.StuckFor = uint64(now - w.waitBegan)
			waits = append(waits, waiter{cond{uint64(op.Var.Addr), op.Want, op.Cmp}, int(w.id)})
		}
		d.WGs = append(d.WGs, wd)
	}
	slices.SortFunc(waits, func(a, b waiter) int {
		return cmp.Or(cmp.Compare(a.c.addr, b.c.addr), cmp.Compare(a.c.want, b.c.want),
			cmp.Compare(a.c.cmp, b.c.cmp), cmp.Compare(a.id, b.id))
	})
	ids := make([]int, len(waits))
	for i := 0; i < len(waits); {
		j := i
		for ; j < len(waits) && waits[j].c == waits[i].c; j++ {
			ids[j] = waits[j].id
		}
		c := waits[i].c
		d.Conditions = append(d.Conditions, metrics.BlockedCond{
			Addr: c.addr, Want: c.want, Cmp: c.cmp.String(), Waiters: ids[i:j:j],
		})
		i = j
	}
	if p, ok := m.pol.(interface{ Diagnose(*metrics.Diagnosis) }); ok {
		p.Diagnose(d)
	}
	return d
}

// Run launches the kernel and simulates to completion, deadlock, or the
// cycle cap. It may be called once.
func (m *Machine) Run() metrics.Result {
	m.Prepare()
	m.RunTo(event.Cycle(m.cfg.MaxCycles))
	return m.FinishRun()
}

// Prepare arms the run without driving the engine: the event budget, the
// first dispatcher kick and the deadlock watchdog with its proof. The
// fleet layer uses the Prepare/RunTo/FinishRun decomposition to advance
// each workload in slices between which it may checkpoint, derate or halt
// the machine; a run sliced at any cycles equals the unsliced Run
// (FuzzSlicedRun). It may be called once.
func (m *Machine) Prepare() {
	if m.ran {
		panic("gpu: Machine.Run called twice")
	}
	m.ran = true
	m.eng.SetEventBudget(m.cfg.MaxEvents)
	m.sched.kick()
	m.watchFrom = m.eng.Now()
	m.bookWatchdog()
}

// The deadlock watchdog ticks watchTicks times per progress window. Every
// tick runs the deadlock proof, so a proven run ends within 1/watchTicks
// of a window; every windowEvery-th tick, a quarter window apart, also
// ends a run that went a whole window without progress.
const (
	watchTicks  = 64
	windowEvery = 16
)

// bookWatchdog books the watchdog's next tick. Each tick's cycle is
// computed from its count, not from the last tick, so the ticks never
// drift and the window check lands on whole quarter windows.
func (m *Machine) bookWatchdog() {
	m.watchTick++
	t := m.eng.NewTask(runWatchdog)
	t.Env[0] = m
	m.eng.AtTask(m.watchFrom+event.Cycle(m.watchTick*m.cfg.ProgressWindow/watchTicks), t)
}

// runWatchdog is one watchdog tick: on a full progress window without any
// WG advancing, or once the proof shows no WG ever can, it captures a
// structured diagnosis and stops the engine; otherwise it books the next
// tick.
func runWatchdog(t *event.Task) {
	m := t.Env[0].(*Machine)
	if m.Done() {
		return
	}
	reason := ""
	if m.watchTick%windowEvery == 0 && m.eng.Now()-m.lastProgress >= event.Cycle(m.cfg.ProgressWindow) {
		reason = metrics.ReasonProgressStall
	} else if m.provenDeadlock() {
		reason = metrics.ReasonProvenDeadlock
	}
	if reason != "" {
		m.deadlocked = true
		m.diag = m.diagnose(reason)
		m.eng.Stop()
		return
	}
	m.bookWatchdog()
}

// RunTo drives the engine to the given cycle (or to a stop, budget
// exhaustion, or calendar drain, whichever comes first).
func (m *Machine) RunTo(c event.Cycle) { m.eng.RunUntil(c) }

// FinishRun classifies an unfinished run and assembles the result.
func (m *Machine) FinishRun() metrics.Result {
	if !m.Done() {
		m.deadlocked = true
		if m.diag == nil {
			reason := metrics.ReasonCycleBudget
			if m.eng.BudgetExhausted() {
				reason = metrics.ReasonEventBudget
			} else if m.eng.Pending() == 0 {
				reason = metrics.ReasonNoEvents
			}
			m.diag = m.diagnose(reason)
		}
	}
	end := m.eng.Now()
	for _, w := range m.allWGs {
		w.closePhase(end)
	}
	irOpsInterpreted.Add(m.irOps)
	m.irOps = 0
	return m.result(end)
}
