package awg_test

import (
	"strings"
	"testing"

	"awgsim/awg"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
)

// quickCfg shrinks a run so the full matrix stays fast while keeping the
// launch exactly machine-filling.
func quickCfg(bench, policy string) awg.Config {
	g := gpu.DefaultConfig()
	g.MaxWGsPerCU = 4
	p := kernels.DefaultParams()
	p.NumWGs = g.NumCUs * g.MaxWGsPerCU
	p.Iters = 3
	return awg.Config{Benchmark: bench, Policy: policy, GPU: g, Params: p}
}

// TestMatrixAllBenchmarksAllPolicies runs every benchmark under every
// canonical policy and functionally validates each completed run (lock
// counts, conserved balances, barrier epochs). This is the repository's
// strongest end-to-end guarantee: no policy wins by breaking
// synchronization.
func TestMatrixAllBenchmarksAllPolicies(t *testing.T) {
	benches := append(awg.Benchmarks(), awg.AppBenchmarks()...)
	for _, b := range benches {
		for _, p := range awg.Policies() {
			b, p := b, p
			t.Run(b+"/"+p, func(t *testing.T) {
				t.Parallel()
				res, err := awg.Run(quickCfg(b, p))
				if err != nil {
					t.Fatal(err)
				}
				if res.Deadlocked {
					t.Fatalf("%s deadlocked under %s (non-oversubscribed)", b, p)
				}
				if res.Completed == 0 {
					t.Fatal("no WGs completed")
				}
			})
		}
	}
}

// TestOversubscribedMatrix: with a CU preempted mid-kernel, Baseline and
// Sleep must deadlock on every benchmark (they cannot release resources)
// while every monitor/timeout policy completes — Figure 15's headline
// qualitative result.
func TestOversubscribedMatrix(t *testing.T) {
	for _, b := range awg.Benchmarks() {
		b := b
		t.Run(b, func(t *testing.T) {
			t.Parallel()
			mustDeadlock := []string{"Baseline", "Sleep"}
			mustComplete := []string{"Timeout", "MonNR-All", "MonNR-One", "AWG"}
			for _, p := range mustDeadlock {
				cfg := quickCfg(b, p)
				cfg.Oversubscribe = true
				cfg.PreemptAt = 3_000
				res, err := awg.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if !res.Deadlocked {
					t.Errorf("%s completed an oversubscribed run — it cannot provide IFP", p)
				}
			}
			for _, p := range mustComplete {
				cfg := quickCfg(b, p)
				cfg.Oversubscribe = true
				cfg.PreemptAt = 3_000
				res, err := awg.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if res.Deadlocked {
					t.Errorf("%s deadlocked in the oversubscribed scenario", p)
				}
			}
		})
	}
}

func TestNewPolicyParsing(t *testing.T) {
	for _, name := range awg.Policies() {
		if _, err := awg.NewPolicy(name); err != nil {
			t.Errorf("NewPolicy(%s): %v", name, err)
		}
	}
	for _, name := range []string{"Sleep-8k", "Sleep-256k", "Timeout-10k", "Timeout-500", "AWG-nocache"} {
		p, err := awg.NewPolicy(name)
		if err != nil {
			t.Errorf("NewPolicy(%s): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%s).Name() = %s", name, p.Name())
		}
	}
	for _, bad := range []string{"", "Nope", "Sleep-", "Sleep-0", "Timeout-x", "Sleep--5"} {
		if _, err := awg.NewPolicy(bad); err == nil {
			t.Errorf("NewPolicy(%q) accepted", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := awg.Run(awg.Config{Policy: "AWG"}); err == nil {
		t.Error("missing benchmark accepted")
	}
	if _, err := awg.Run(awg.Config{Benchmark: "SPM_G"}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := awg.Run(awg.Config{Benchmark: "nope", Policy: "AWG"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := awg.Run(awg.Config{Benchmark: "SPM_G", Policy: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := awg.Run(quickCfg("FAM_G", "AWG"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := awg.Run(quickCfg("FAM_G", "AWG"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Atomics != b.Atomics || a.Resumes != b.Resumes {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestResultMetadata(t *testing.T) {
	res, err := awg.Run(quickCfg("SPM_G", "AWG"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "SPM_G" || res.Policy != "AWG" {
		t.Fatalf("metadata %s/%s", res.Benchmark, res.Policy)
	}
	if res.ContextKB <= 0 {
		t.Fatal("no context size reported")
	}
	if res.SyncVars == 0 {
		t.Fatal("no sync variables characterized")
	}
}

func TestListsAreConsistent(t *testing.T) {
	if len(awg.Benchmarks()) != 12 {
		t.Fatalf("%d benchmarks, want 12", len(awg.Benchmarks()))
	}
	if len(awg.AppBenchmarks()) != 2 {
		t.Fatalf("%d app benchmarks, want 2", len(awg.AppBenchmarks()))
	}
	joined := strings.Join(awg.Policies(), " ")
	for _, want := range []string{"Baseline", "AWG", "MonNR-One", "MinResume"} {
		if !strings.Contains(joined, want) {
			t.Errorf("policy list missing %s", want)
		}
	}
}

func TestMustRunPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun with a bad config did not panic")
		}
	}()
	awg.MustRun(awg.Config{Benchmark: "nope", Policy: "AWG"})
}

// TestAWGBeatsBaselineOnContendedMutex pins the headline direction at test
// scale: AWG must be at least 1.5x faster than busy-waiting on the
// centralized ticket lock.
func TestAWGBeatsBaselineOnContendedMutex(t *testing.T) {
	base, err := awg.Run(quickCfg("FAM_G", "Baseline"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := awg.Run(quickCfg("FAM_G", "AWG"))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Speedup(base); s < 1.5 {
		t.Fatalf("AWG speedup on FAM_G = %.2f, want >= 1.5", s)
	}
	if res.Atomics*2 > base.Atomics {
		t.Fatalf("AWG used %d atomics vs baseline %d — monitors not reducing traffic",
			res.Atomics, base.Atomics)
	}
}

// TestAppWorkloadsConserveInvariants runs the two applications under AWG at
// a larger scale than the matrix and checks their invariants via the
// built-in validation (Run returns an error on violation).
func TestAppWorkloadsConserveInvariants(t *testing.T) {
	for _, b := range awg.AppBenchmarks() {
		cfg := quickCfg(b, "AWG")
		cfg.Params.Iters = 8
		if _, err := awg.Run(cfg); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
}
