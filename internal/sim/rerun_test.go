package sim

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/metrics"
	"awgsim/internal/prog"
	"awgsim/internal/trace"
)

// runNormalized builds and runs cfg, returning its Result without the
// Diagnosis pointer, the Diagnosis itself, and its rendering.
func runNormalized(t *testing.T, cfg Config) (metrics.Result, *metrics.Diagnosis, string) {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	res := s.Machine().Run()
	d := res.Diagnosis
	norm, rendered := normalize(res)
	return norm, d, rendered
}

// TestTracedRerunReproducesStall pins the recipe for seeing the cycles
// before a stall: re-run the Config with a Tracer. Each stall reason the
// watchdog gives has a case that reaches it. An oversubscribed Baseline
// launch is a proven deadlock: residents spin at the exit barrier, and
// pending WGs can never dispatch. A kernel spinning on plain loads, outside
// any wait op, is beyond the proof and stalls out the progress window: the
// window check runs on whole quarter windows, so with a 100,000-cycle
// window (and with the litmus machine's 60,000) the run ends at the fifth
// quarter. A budget below the watchdog's first tick, 1/64 of the window,
// cuts the Baseline launch first. Re-run traced, each must reach the same
// Result and the same diagnosis. Cut just past the proof's last progress,
// a traced re-run must record the timeline on both sides of it.
func TestTracedRerunReproducesStall(t *testing.T) {
	cfg := quickConfig("SPM_G", "Baseline", false, 0)
	cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU

	spin := quickConfig("", "Baseline", false, 0)
	b := prog.NewBuilder()
	loop := b.Here()
	b.Br(prog.EQ, b.Load(b.GVar(0x1000)), prog.Imm(0), loop) // no WG ever sets the flag
	spin.Kernel = &gpu.KernelSpec{Name: "load-spin", NumWGs: 1, WIsPerWG: 64, IR: b.MustBuild()}
	spin100k, spin60k := spin, spin
	spin100k.GPU.ProgressWindow = 100_000
	spin60k.GPU.ProgressWindow = 60_000

	budgetCfg := cfg
	budgetCfg.CycleBudget = cfg.GPU.ProgressWindow / 128 // below the first tick
	var proven *metrics.Diagnosis
	for _, c := range []struct {
		cfg    Config
		reason string
		at     uint64 // the cycle the run must end at; 0 leaves it free
	}{
		{cfg, metrics.ReasonProvenDeadlock, 0},
		{spin100k, metrics.ReasonProgressStall, 125_000},
		{spin60k, metrics.ReasonProgressStall, 75_000},
		{budgetCfg, metrics.ReasonCycleBudget, 0},
	} {
		cold, d, coldDiag := runNormalized(t, c.cfg)
		if d == nil || d.Reason != c.reason {
			t.Fatalf("untraced run diagnosis %v, want %s", d, c.reason)
		}
		if c.at != 0 && d.AtCycle != c.at {
			t.Errorf("%s with a %d-cycle window: ended at cycle %d, want %d",
				c.reason, c.cfg.GPU.ProgressWindow, d.AtCycle, c.at)
		}
		traced := c.cfg
		traced.Tracer = trace.NewRecorder(100_000)
		rerun, _, rerunDiag := runNormalized(t, traced)
		if rerun != cold || rerunDiag != coldDiag {
			t.Errorf("%s: traced re-run diverged:\n  cold:   %+v\n  traced: %+v\n--- cold diag ---\n%s\n--- traced diag ---\n%s",
				c.reason, cold, rerun, coldDiag, rerunDiag)
		}
		if traced.Tracer.Len() == 0 {
			t.Errorf("%s: traced re-run recorded nothing", c.reason)
		}
		if c.reason == metrics.ReasonProvenDeadlock {
			proven = d
		}
	}

	cut := cfg
	cut.CycleBudget = proven.LastProgress + 50_000
	cut.Tracer = trace.NewRecorder(100_000)
	runNormalized(t, cut)
	last := event.Cycle(proven.LastProgress)
	var before, after int
	for _, e := range cut.Tracer.Events() {
		if e.At <= last {
			before++
		} else {
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("re-run cut at cycle %d recorded %d events up to last progress %d and %d after; want both sides",
			cut.CycleBudget, before, last, after)
	}
}
