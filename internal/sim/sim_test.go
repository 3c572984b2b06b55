package sim

import (
	"errors"
	"fmt"
	"testing"

	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
)

// quickConfig builds a reduced-scale config matching the experiment
// packages' quick mode: quarter occupancy, three synchronization rounds.
func quickConfig(bench, policy string, oversub bool, seed uint64) Config {
	g := gpu.DefaultConfig()
	g.MaxWGsPerCU /= 4
	p := kernels.DefaultParams()
	p.NumWGs = g.NumCUs * g.MaxWGsPerCU
	p.Iters = 3
	return Config{
		Benchmark:     bench,
		Policy:        policy,
		GPU:           g,
		Params:        p,
		Oversubscribe: oversub,
		PreemptAt:     10_000,
		Seed:          seed,
	}
}

// normalize strips the Diagnosis pointer so Results compare by value, and
// returns its rendering for a separate comparison (two equal deadlocks
// allocate distinct Diagnosis objects).
func normalize(r metrics.Result) (metrics.Result, string) {
	diag := ""
	if r.Diagnosis != nil {
		diag = r.Diagnosis.String()
	}
	r.Diagnosis = nil
	return r, diag
}

// faultJobs builds a fault-injection sweep: one base config per (bench,
// policy) crossed with scripted and random fault schedules, oversubscribed
// 2x so Baseline deadlocks (exercising the diagnosis path).
func faultJobs() []Job {
	benches := []string{"SPM_G"}
	policies := []string{"Baseline", "Timeout", "AWG"}
	base := quickConfig("SPM_G", "Baseline", false, 0)
	scheds := fault.Scripted(base.GPU.NumCUs, 10_000)[:2]
	scheds = append(scheds,
		fault.Random(1, base.GPU.NumCUs, 10_000, 80_000),
		fault.Random(2, base.GPU.NumCUs, 10_000, 80_000))
	var jobs []Job
	for _, b := range benches {
		for _, p := range policies {
			for i := range scheds {
				cfg := quickConfig(b, p, false, 0)
				cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU
				s := scheds[i]
				cfg.Faults = &s
				cfg.CycleBudget = 20_000_000
				jobs = append(jobs, Job{
					Key:    fmt.Sprintf("%s/%s/%s", b, p, s.Name),
					Config: cfg,
				})
			}
		}
	}
	return jobs
}

// TestRunAllMatchesSerial is the determinism regression the package doc
// promises: a (benchmark × policy × seed) grid, including oversubscribed
// runs, plus a fault-schedule sweep whose Baseline cells deadlock, simulated
// twice through the parallel pool and once serially, must produce equal
// metrics.Result values — and equal deadlock diagnoses — cell for cell.
func TestRunAllMatchesSerial(t *testing.T) {
	benches := []string{"SPM_G", "FAM_G", "TB_LG", "SLM_G"}
	policies := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
	seeds := []uint64{0, 1, 42}
	var jobs []Job
	for _, b := range benches {
		for _, p := range policies {
			for _, s := range seeds {
				oversub := p != "Baseline" // Baseline deadlocks oversubscribed; keep it resident-only
				jobs = append(jobs, Job{
					Key:    fmt.Sprintf("%s/%s/seed%d", b, p, s),
					Config: quickConfig(b, p, oversub, s),
				})
			}
		}
	}
	jobs = append(jobs, faultJobs()...)
	serial := RunAllWorkers(jobs, 1)
	parallel1 := RunAll(jobs) // the GOMAXPROCS-wide pool
	parallel2 := RunAllWorkers(jobs, 4)
	deadlocks := 0
	for i := range jobs {
		if err := serial[i].Err; err != nil {
			t.Fatalf("%s: serial run failed: %v", jobs[i].Key, err)
		}
		sr, sd := normalize(serial[i].Result)
		if sr.Deadlocked {
			deadlocks++
		}
		for run, got := range map[string]Outcome{"pool": parallel1[i], "pool-4": parallel2[i]} {
			if got.Err != nil {
				t.Fatalf("%s: %s run failed: %v", jobs[i].Key, run, got.Err)
			}
			if got.Key != jobs[i].Key {
				t.Fatalf("outcome %d key %q, want %q", i, got.Key, jobs[i].Key)
			}
			gr, gd := normalize(got.Result)
			if gr != sr {
				t.Errorf("%s: %s result diverged from serial:\n  serial:   %+v\n  parallel: %+v",
					jobs[i].Key, run, sr, gr)
			}
			if gd != sd {
				t.Errorf("%s: %s diagnosis diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					jobs[i].Key, run, sd, gd)
			}
		}
	}
	if deadlocks == 0 {
		t.Fatal("grid produced no deadlocked cell; the diagnosis path went untested")
	}
}

// TestSeedPerturbsRun checks the seed axis is live: different seeds may
// produce different timings, equal seeds must reproduce exactly.
func TestSeedPerturbsRun(t *testing.T) {
	a1, err := Run(quickConfig("SPM_G", "AWG", false, 7))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(quickConfig("SPM_G", "AWG", false, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("equal seeds diverged:\n  %+v\n  %+v", a1, a2)
	}
}

func TestRunAllCarriesErrors(t *testing.T) {
	jobs := []Job{
		{Key: "good", Config: quickConfig("SPM_G", "Baseline", false, 0)},
		{Key: "bad-policy", Config: quickConfig("SPM_G", "NoSuchPolicy", false, 0)},
		{Key: "bad-bench", Config: quickConfig("NoSuchBench", "Baseline", false, 0)},
	}
	outs := RunAll(jobs)
	if outs[0].Err != nil {
		t.Fatalf("good job failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil || outs[2].Err == nil {
		t.Fatalf("bad jobs did not carry errors: %+v", outs)
	}
	if outs[0].Result.Cycles == 0 {
		t.Fatal("good job reported zero cycles")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Policy: "AWG"}); err == nil {
		t.Error("config without benchmark or kernel accepted")
	}
	if _, err := Run(Config{Benchmark: "SPM_G"}); err == nil {
		t.Error("config without policy accepted")
	}
}

// TestSessionValidationFailure: a completed run whose Verify fails reports
// the error through Session.Run and through a staged Prepare/RunTo/Finish
// alike, and each path accounts exactly one run in Totals().
func TestSessionValidationFailure(t *testing.T) {
	errCorrupt := errors.New("corrupt counter")
	cfg := quickConfig("SPM_G", "AWG", false, 0)
	b, err := kernels.Build(cfg.Benchmark, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Benchmark = ""
	cfg.Kernel, cfg.Init = &b.Spec, b.Init
	cfg.Verify = func(func(mem.Addr) int64) error { return errCorrupt }
	staged := func(s *Session) (metrics.Result, error) {
		m := s.Machine()
		m.Prepare()
		m.RunTo(m.CycleLimit())
		return s.Finish()
	}
	for _, path := range []struct {
		name string
		run  func(*Session) (metrics.Result, error)
	}{{"Run", (*Session).Run}, {"Finish", staged}} {
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ResetTotals()
		res, err := path.run(s)
		s.Release()
		if res.Deadlocked || res.Cycles == 0 {
			t.Fatalf("%s: run did not complete: %+v", path.name, res)
		}
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: error %v, want the Verify failure", path.name, err)
		}
		if cycles, runs := Totals(); runs != 1 || cycles != res.Cycles {
			t.Errorf("%s: Totals() = %d cycles, %d runs; want %d, 1", path.name, cycles, runs, res.Cycles)
		}
	}
}

// TestTotalsAccumulate: a run and a Reuse of its Result each account one
// run in Totals, only the Reuse counts in CacheHits, and reusing the zero
// Result of a Config that failed construction counts nothing.
func TestTotalsAccumulate(t *testing.T) {
	ResetTotals()
	ResetCache()
	res, err := Run(quickConfig("SPM_G", "Baseline", false, 0))
	if err != nil {
		t.Fatal(err)
	}
	cycles, runs := Totals()
	if runs != 1 || cycles == 0 {
		t.Fatalf("Totals() = %d cycles, %d runs after one run", cycles, runs)
	}
	bad, err := Run(quickConfig("SPM_G", "NoSuchPolicy", false, 0))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	Reuse(res)
	Reuse(bad)
	if c, r := Totals(); r != 2 || c != 2*cycles {
		t.Errorf("after one Reuse: Totals() = %d cycles, %d runs; want %d, 2", c, r, 2*cycles)
	}
	if h := CacheHits(); h != 1 {
		t.Errorf("CacheHits() = %d after one Reuse of a run and one of a construction failure, want 1", h)
	}
}
