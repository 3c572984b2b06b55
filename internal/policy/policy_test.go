package policy_test

import (
	"testing"

	"awgsim/internal/cp"
	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
	"awgsim/internal/policy"
	"awgsim/internal/prog"
	"awgsim/internal/syncmon"
)

func testConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.NumCUs = 2
	cfg.MaxWGsPerCU = 4
	cfg.ProgressWindow = 300_000
	cfg.MaxCycles = 50_000_000
	return cfg
}

// producerConsumer builds a kernel where WG 0 stores `val` into flag after
// `delay` cycles and every other WG waits for it.
func producerConsumer(numWGs int, delay event.Cycle, flag mem.Addr, val int64) *gpu.KernelSpec {
	return irKernel("pc", numWGs, func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		consumer, end := b.Label(), b.Label()
		b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(0), consumer)
		b.Compute(prog.Imm(int64(delay)))
		b.AtomicStore(v, prog.Imm(val))
		b.Jmp(end)
		b.Bind(consumer)
		b.AwaitEq(v, prog.Imm(val))
		b.Bind(end)
	})
}

// irKernel builds a 64-WI test kernel whose program emit assembles.
func irKernel(name string, numWGs int, emit func(b *prog.Builder)) *gpu.KernelSpec {
	b := prog.NewBuilder()
	emit(b)
	return &gpu.KernelSpec{Name: name, NumWGs: numWGs, WIsPerWG: 64, IR: b.MustBuild()}
}

// repeat emits body n times as a register-counted loop, passing the
// iteration register.
func repeat(b *prog.Builder, n int64, body func(i prog.Src)) {
	i := b.Let(prog.Imm(0))
	end := b.Label()
	top := b.Here()
	b.Br(prog.GE, i, prog.Imm(n), end)
	body(i)
	b.ArithTo(prog.OpAdd, i, i, prog.Imm(1))
	b.Jmp(top)
	b.Bind(end)
}

// emitLockedIncrement emits one critical section: take the test-and-set
// lock, read-modify-write counter through plain loads and stores around
// work cycles of computation, release.
func emitLockedIncrement(b *prog.Builder, lock, counter prog.Mem, work int64) {
	b.AcquireExch(lock, prog.Imm(1), prog.Imm(0), false)
	x := b.Load(counter)
	b.Compute(prog.Imm(work))
	b.Store(counter, b.Add(x, prog.Imm(1)))
	b.AtomicExchX(lock, prog.Imm(0))
}

// lockContender builds a kernel where every WG takes a test-and-set lock a
// few times around a shared counter.
func lockContender(numWGs, iters int, lock, counter mem.Addr) *gpu.KernelSpec {
	return irKernel("lock", numWGs, func(b *prog.Builder) {
		l, c := b.GVar(uint64(lock)), b.GVar(uint64(counter))
		repeat(b, int64(iters), func(prog.Src) { emitLockedIncrement(b, l, c, 100) })
	})
}

func run(t *testing.T, spec *gpu.KernelSpec, pol gpu.Policy) (metrics.Result, *gpu.Machine) {
	t.Helper()
	m, err := gpu.NewMachine(testConfig(), mem.DefaultConfig(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run(), m
}

// Every policy must complete both canonical synchronization shapes and
// preserve lock-protected data.
func TestEveryPolicyCompletesAndIsCorrect(t *testing.T) {
	mk := map[string]func() gpu.Policy{
		"Baseline":  func() gpu.Policy { return policy.NewBaseline() },
		"Sleep":     func() gpu.Policy { return policy.NewSleep("Sleep", 16_000) },
		"Timeout":   func() gpu.Policy { return policy.NewTimeout("Timeout", 10_000) },
		"MonRS-All": func() gpu.Policy { return policy.NewMonRSAll() },
		"MonR-All":  func() gpu.Policy { return policy.NewMonRAll() },
		"MonNR-All": func() gpu.Policy { return policy.NewMonNRAll() },
		"MonNR-One": func() gpu.Policy { return policy.NewMonNROne() },
		"AWG":       func() gpu.Policy { return policy.NewAWG() },
		"MinResume": func() gpu.Policy { return policy.NewMinResume() },
	}
	for name, build := range mk {
		t.Run(name+"/producer-consumer", func(t *testing.T) {
			res, m := run(t, producerConsumer(8, 5000, 0x1000, 9), build())
			if res.Deadlocked {
				t.Fatal("deadlocked")
			}
			if got := m.Mem().Read(0x1000); got != 9 {
				t.Fatalf("flag = %d", got)
			}
		})
		t.Run(name+"/mutex", func(t *testing.T) {
			res, m := run(t, lockContender(8, 4, 0x2000, 0x2040), build())
			if res.Deadlocked {
				t.Fatal("deadlocked")
			}
			if got := m.Mem().Read(0x2040); got != 32 {
				t.Fatalf("counter = %d, want 32 (lost update under %s)", got, name)
			}
		})
	}
}

func TestPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		pol  gpu.Policy
		want string
	}{
		{policy.NewBaseline(), "Baseline"},
		{policy.NewSleep("Sleep-8k", 8000), "Sleep-8k"},
		{policy.NewTimeout("Timeout-10k", 10_000), "Timeout-10k"},
		{policy.NewMonRSAll(), "MonRS-All"},
		{policy.NewMonRAll(), "MonR-All"},
		{policy.NewMonNRAll(), "MonNR-All"},
		{policy.NewMonNROne(), "MonNR-One"},
		{policy.NewAWG(), "AWG"},
		{policy.NewMinResume(), "MinResume"},
		{policy.NewAWGNoCache(), "AWG-nocache"},
	} {
		if got := tc.pol.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestWindowOfVulnerability demonstrates the Figure 10 race: with wait
// instructions (MonR) and the safety-net timeout disabled, an update that
// lands between the failed atomic and the monitor arming is lost for good
// and the kernel deadlocks. Waiting atomics (MonNR) registering at the
// atomic's own bank instant are immune.
func TestWindowOfVulnerability(t *testing.T) {
	// The producer fires while consumers are mid-arming: a short delay
	// maximizes the overlap; run several delays to land in the window.
	raceyRun := func(build func() gpu.Policy) bool {
		deadlocked := false
		for _, delay := range []event.Cycle{60, 100, 140, 180, 220} {
			cfg := testConfig()
			cfg.ProgressWindow = 100_000
			spec := producerConsumer(8, delay, 0x3000, 1)
			m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, build())
			if err != nil {
				t.Fatal(err)
			}
			if m.Run().Deadlocked {
				deadlocked = true
			}
		}
		return deadlocked
	}
	monRNoFallback := func() gpu.Policy {
		return policy.NewMonitor(policy.MonitorOptions{
			Name: "MonR-NoFallback", Arm: policy.ArmWaitInstr, Fallback: 0,
		})
	}
	monNRNoFallback := func() gpu.Policy {
		return policy.NewMonitor(policy.MonitorOptions{
			Name: "MonNR-NoFallback", Arm: policy.ArmWaitingAtomic, Fallback: 0,
		})
	}
	if !raceyRun(monRNoFallback) {
		t.Error("MonR without fallback never lost a wake-up across the race window")
	}
	if raceyRun(monNRNoFallback) {
		t.Error("waiting atomics lost a wake-up; registration is supposed to be race-free")
	}
}

// TestMonRFallbackPapersOverRace: with the fallback enabled, MonR survives
// the same schedule, at the cost of counted timeouts.
func TestMonRFallbackPapersOverRace(t *testing.T) {
	cfg := testConfig()
	spec := producerConsumer(8, 100, 0x4000, 1)
	m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, policy.NewMonRAll())
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("MonR-All with fallback deadlocked")
	}
}

// TestFig12Walkthrough exercises the full AWG mechanism of Figure 12 in one
// scenario: waiting atomics register in a deliberately tiny SyncMon, spill
// through the Monitor Log, the CP drains and checks them, and the WGs are
// resumed when the producer writes.
func TestFig12Walkthrough(t *testing.T) {
	smCfg := syncmon.DefaultConfig()
	smCfg.Sets = 1
	smCfg.Ways = 1 // one cached condition; everyone else spills
	cpCfg := cp.DefaultConfig()
	cpCfg.DrainInterval = 2_000
	cpCfg.CheckInterval = 2_000
	pol := policy.NewMonitor(policy.MonitorOptions{
		Name: "AWG-tiny", Arm: policy.ArmWaitingAtomic,
		Fallback:      50_000,
		SyncMonConfig: &smCfg, CPConfig: &cpCfg,
	})
	// Consumers wait on distinct flags so their conditions cannot share the
	// single SyncMon entry.
	const base = mem.Addr(0x5000)
	spec := irKernel("walkthrough", 8, func(b *prog.Builder) {
		flags := make([]uint64, 8)
		for i := range flags {
			flags[i] = uint64(base + mem.Addr(i*64))
		}
		flagBase := b.AddrRange(flags)
		id := b.Geom(prog.GeomID)
		consumer, end := b.Label(), b.Label()
		b.Br(prog.NE, id, prog.Imm(0), consumer)
		b.Compute(prog.Imm(20_000))
		for i := 1; i < 8; i++ {
			b.AtomicStore(b.GVar(flags[i]), prog.Imm(1))
		}
		b.Jmp(end)
		b.Bind(consumer)
		b.AwaitEq(prog.At(b.Add(prog.Imm(flagBase), id), prog.Global), prog.Imm(1))
		b.Bind(end)
	})
	m, err := gpu.NewMachine(testConfig(), mem.DefaultConfig(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("walkthrough deadlocked")
	}
	if res.LogSpills == 0 {
		t.Fatal("no conditions spilled through the Monitor Log")
	}
	if res.Resumes+res.Timeouts == 0 {
		t.Fatal("no waiter was ever resumed")
	}
}

// TestMesaRetryOnFullLog: when both the SyncMon and the Monitor Log are
// full, the waiting atomic fails without entering a waiting state and the
// WG retries (Mesa semantics) — the kernel still completes.
func TestMesaRetryOnFullLog(t *testing.T) {
	smCfg := syncmon.DefaultConfig()
	smCfg.Sets = 0
	smCfg.WaitListSize = 0
	smCfg.LogCapacity = 1 // effectively everything is rejected
	pol := policy.NewMonitor(policy.MonitorOptions{
		Name: "AWG-fullog", Arm: policy.ArmWaitingAtomic,
		Fallback:      25_000,
		SyncMonConfig: &smCfg,
	})
	spec := producerConsumer(8, 10_000, 0x6000, 1)
	m, err := gpu.NewMachine(testConfig(), mem.DefaultConfig(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked with full log")
	}
	if res.LogRejects == 0 {
		t.Fatal("no Mesa rejections recorded")
	}
}

// TestSleepBacksOffExponentially: a longer max backoff must reduce the
// number of retry atomics for a long wait.
func TestSleepBacksOffExponentially(t *testing.T) {
	atomicsWith := func(max event.Cycle) uint64 {
		spec := producerConsumer(2, 60_000, 0x7000, 1)
		res, _ := run(t, spec, policy.NewSleep("Sleep", max))
		if res.Deadlocked {
			t.Fatal("deadlocked")
		}
		return res.Atomics
	}
	short, long := atomicsWith(1_000), atomicsWith(64_000)
	if long >= short {
		t.Fatalf("backoff cap 64k used %d atomics, cap 1k used %d — no reduction", long, short)
	}
}

// TestTimeoutYieldsWhenOversubscribed: with more WGs than slots, the
// Timeout policy must context switch waiters out so pending WGs can run.
func TestTimeoutYieldsWhenOversubscribed(t *testing.T) {
	cfg := testConfig() // 8 slots
	spec := producerConsumer(12, 50_000, 0x8000, 1)
	m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, policy.NewTimeout("Timeout", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.SwitchesOut == 0 {
		t.Fatal("oversubscribed Timeout never context switched")
	}
}

// TestBaselineDeadlocksWhenOversubscribed: with more WGs than slots and
// the producer dispatched last, busy-waiting consumers hold every slot and
// the producer never runs — the motivating deadlock of the paper.
func TestBaselineDeadlocksWhenOversubscribed(t *testing.T) {
	cfg := testConfig() // 8 slots
	cfg.ProgressWindow = 150_000
	const flag = mem.Addr(0x9000)
	spec := irKernel("inverted-pc", 12, func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		consumer, end := b.Label(), b.Label()
		// The producer is the last WG dispatched.
		b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(11), consumer)
		b.AtomicStore(v, prog.Imm(1))
		b.Jmp(end)
		b.Bind(consumer)
		b.AwaitEq(v, prog.Imm(1))
		b.Bind(end)
	})
	m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, policy.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if !res.Deadlocked {
		t.Fatal("baseline completed an oversubscribed dependent kernel — impossible without IFP")
	}
	// The same kernel under AWG completes: waiting WGs yield their slots.
	m2, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, policy.NewAWG())
	if err != nil {
		t.Fatal(err)
	}
	if res2 := m2.Run(); res2.Deadlocked {
		t.Fatal("AWG deadlocked where it must provide forward progress")
	}
}

// TestMonNROneServializesMutexHandoff: resume-one must wake exactly one
// waiter per release, so wasted resumes stay near zero on a mutex, while
// resume-all wakes the whole herd.
func TestMonNROneAvoidsHerd(t *testing.T) {
	one, _ := run(t, lockContender(8, 6, 0xa000, 0xa040), policy.NewMonNROne())
	all, _ := run(t, lockContender(8, 6, 0xb000, 0xb040), policy.NewMonNRAll())
	if one.Deadlocked || all.Deadlocked {
		t.Fatal("deadlocked")
	}
	if one.WastedResumes >= all.WastedResumes {
		t.Fatalf("resume-one wasted %d resumes, resume-all %d — herd not visible",
			one.WastedResumes, all.WastedResumes)
	}
}

// ticketContender builds a centralized ticket-lock kernel: every waiter
// waits on its own condition of one now-serving variable — the shape on
// which sporadic notifications are maximally wasteful (Figure 9).
func ticketContender(numWGs, iters int, tail, serving mem.Addr) *gpu.KernelSpec {
	return irKernel("ticket", numWGs, func(b *prog.Builder) {
		t, s := b.GVar(uint64(tail)), b.GVar(uint64(serving))
		repeat(b, int64(iters), func(prog.Src) {
			b.AwaitGE(s, b.AtomicAdd(t, prog.Imm(1)))
			b.Compute(prog.Imm(200))
			b.AtomicAddX(s, prog.Imm(1))
		})
	})
}

// TestSporadicWakesAreWasteful: a checking monitor wakes exactly the served
// ticket holder per release; the sporadic monitor wakes every registered
// waiter on every access — the Figure 9 wait-efficiency gap.
func TestSporadicWakesAreWasteful(t *testing.T) {
	rs, _ := run(t, ticketContender(8, 6, 0xc000, 0xc040), policy.NewMonRSAll())
	r, _ := run(t, ticketContender(8, 6, 0xd000, 0xd040), policy.NewMonRAll())
	if rs.Deadlocked || r.Deadlocked {
		t.Fatal("deadlocked")
	}
	if rs.Atomics <= r.Atomics {
		t.Fatalf("sporadic atomics (%d) not above checking atomics (%d)", rs.Atomics, r.Atomics)
	}
	if rs.WastedResumes <= r.WastedResumes {
		t.Fatalf("sporadic wasted resumes (%d) not above checking (%d)",
			rs.WastedResumes, r.WastedResumes)
	}
}

// TestTimeoutWithdrawalDoesNotLoseCPWakeup is the lost-wakeup regression:
// a spilled waiter's fallback timeout withdraws its registration while the
// entry is still in the Monitor Log ring; the WG retries, fails, and spills
// the same condition again. The withdrawal used to tombstone the ring entry
// (SyncMon side) AND record a deferred tombstone with the CP — the ring
// tombstone is skipped by Pop and never consumed, so the CP one stayed
// stale and silently swallowed the re-spilled entry at drain time. The
// waiter then never reached the CP table and only ever resumed through its
// own timeouts, never through a CP wake.
func TestTimeoutWithdrawalDoesNotLoseCPWakeup(t *testing.T) {
	// No SyncMon cache: every registration spills to the log. The drain
	// cadence (20k) is longer than the fallback (12k), so the first timeout
	// fires while the entry is still in the ring; the producer satisfies
	// the condition just after the first drain, and the frequent check
	// passes (1k) must then wake the re-spilled waiter before its next
	// timeout would paper over the loss.
	smCfg := syncmon.DefaultConfig()
	smCfg.Sets = 0
	smCfg.WaitListSize = 0
	cpCfg := cp.DefaultConfig()
	cpCfg.DrainInterval = 20_000
	cpCfg.CheckInterval = 1_000
	pol := policy.NewMonitor(policy.MonitorOptions{
		Name: "MonNR-All-slowdrain", Arm: policy.ArmWaitingAtomic,
		Fallback:      12_000,
		SyncMonConfig: &smCfg,
		CPConfig:      &cpCfg,
	})
	res, m := run(t, producerConsumer(2, 20_200, 0x5000, 1), pol)
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.Timeouts == 0 {
		t.Fatal("scenario never exercised the timeout withdrawal")
	}
	if res.LogSpills < 2 {
		t.Fatalf("LogSpills = %d, want >= 2 (initial spill + re-spill)", res.LogSpills)
	}
	if res.Resumes == 0 {
		t.Fatal("waiter never woken by the CP: re-spill lost")
	}
	if got := m.Mem().Read(0x5000); got != 1 {
		t.Fatalf("flag = %d", got)
	}
}

// TestAWGPredictorActivity: AWG must actually exercise its predictor on a
// mixed mutex+barrier kernel.
func TestAWGPredictorActivity(t *testing.T) {
	const lock, counter, bar = mem.Addr(0xe000), mem.Addr(0xe040), mem.Addr(0xe080)
	spec := irKernel("mixed", 8, func(b *prog.Builder) {
		l, c, v := b.GVar(uint64(lock)), b.GVar(uint64(counter)), b.GVar(uint64(bar))
		repeat(b, 4, func(i prog.Src) {
			emitLockedIncrement(b, l, c, 200)
			// Barrier: counter sweep.
			target := b.Mul(b.Add(i, prog.Imm(1)), prog.Imm(8))
			old := b.AtomicAdd(v, prog.Imm(1))
			arrived := b.Label()
			b.Br(prog.EQ, b.Add(old, prog.Imm(1)), target, arrived)
			b.AwaitGE(v, target)
			b.Bind(arrived)
		})
	})
	res, m := run(t, spec, policy.NewAWG())
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := m.Mem().Read(counter); got != 32 {
		t.Fatalf("counter = %d, want 32", got)
	}
	if res.PredictAll+res.PredictOne == 0 {
		t.Fatal("AWG predictor never consulted")
	}
}

// twoFlagKernel builds the stale-timer scenario: WG 0 sets flag a after
// first cycles of computation and flag b gap cycles later; WG 1 waits for
// a, then for b, so its second wait episode opens while timers its first
// one armed are still pending; every other WG computes for busy cycles.
func twoFlagKernel(numWGs int, first, gap, busy int64, a, b mem.Addr) *gpu.KernelSpec {
	return irKernel("two-flags", numWGs, func(bd *prog.Builder) {
		fa, fb := bd.GVar(uint64(a)), bd.GVar(uint64(b))
		id := bd.Geom(prog.GeomID)
		waiter, other, end := bd.Label(), bd.Label(), bd.Label()
		bd.Br(prog.NE, id, prog.Imm(0), waiter)
		bd.Compute(prog.Imm(first))
		bd.AtomicStore(fa, prog.Imm(1))
		bd.Compute(prog.Imm(gap))
		bd.AtomicStore(fb, prog.Imm(1))
		bd.Jmp(end)
		bd.Bind(waiter)
		bd.Br(prog.NE, id, prog.Imm(1), other)
		bd.AwaitEq(fa, prog.Imm(1))
		bd.AwaitEq(fb, prog.Imm(1))
		bd.Jmp(end)
		bd.Bind(other)
		bd.Compute(prog.Imm(busy))
		bd.Bind(end)
	})
}

// TestStaleTimersIgnored: a WG keeps one wait state across its episodes,
// so a timer its first episode armed can fire while its second one waits.
// Such a timer must do nothing: here every wait is met by a notification
// before its own timers fire, so a stale timer acting on the second
// episode would count a timeout (withdrawing its registration, which the
// retry then re-registers as a third stall) or switch the WG out.
func TestStaleTimersIgnored(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pol    gpu.Policy
		numWGs int
		// WG 0 sets a after first cycles and b gap cycles later.
		first, gap int64
	}{
		// Episode 1 registers near cycle 500, so MonNR-All's fallback
		// fires 50k–63k cycles in. Episode 2 registers near cycle 20.6k,
		// so its own fires after 70.6k; b lands near 65.1k.
		{"fallback/MonNR-All", policy.NewMonNRAll(), 2, 20_000, 45_000},
		// Oversubscribed AWG with no history on an address stalls for
		// 3,000 cycles before switching out: episode 1's expiry lands near
		// cycle 3.5k, inside episode 2's wait (from 2.1k), and b lands near
		// 4.1k, before episode 2's own expiry near 5.1k.
		{"stall-expiry/AWG", policy.NewAWG(), 6, 1_500, 2_500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two WGs per CU keep WG 0's computation at full issue rate;
			// six WGs leave two pending, so the machine is oversubscribed.
			cfg := testConfig()
			cfg.MaxWGsPerCU = 2
			spec := twoFlagKernel(tc.numWGs, tc.first, tc.gap, 200_000, 0xa000, 0xb000)
			m, err := gpu.NewMachine(cfg, mem.DefaultConfig(), spec, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			if res.Deadlocked {
				t.Fatal("deadlocked")
			}
			if res.Timeouts != 0 || res.SwitchesOut != 0 {
				t.Errorf("timeouts=%d switches-out=%d, want 0: a stale timer acted on a later episode",
					res.Timeouts, res.SwitchesOut)
			}
			// Each of WG 1's two episodes registers once and is resumed by
			// its flag's write.
			if res.Stalls != 2 || res.Resumes != 2 {
				t.Errorf("stalls=%d resumes=%d, want 2 and 2", res.Stalls, res.Resumes)
			}
		})
	}
}
