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
// any wait op, is beyond the proof and stalls out the progress window. A
// budget below the watchdog's first tick cuts the Baseline launch first.
// Re-run traced, each must reach the same Result and the same diagnosis.
// Cut just past the proof's last progress, a traced re-run must record the
// timeline on both sides of it.
func TestTracedRerunReproducesStall(t *testing.T) {
	cfg := quickConfig("SPM_G", "Baseline", false, 0)
	cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU

	spin := quickConfig("", "Baseline", false, 0)
	b := prog.NewBuilder()
	loop := b.Here()
	b.Br(prog.EQ, b.Load(b.GVar(0x1000)), prog.Imm(0), loop) // no WG ever sets the flag
	spin.Kernel = &gpu.KernelSpec{Name: "load-spin", NumWGs: 1, WIsPerWG: 64, IR: b.MustBuild()}

	budgetCfg := cfg
	budgetCfg.CycleBudget = cfg.GPU.ProgressWindow / 8 // below the first tick
	var proven *metrics.Diagnosis
	for _, c := range []struct {
		cfg    Config
		reason string
	}{
		{cfg, metrics.ReasonProvenDeadlock},
		{spin, metrics.ReasonProgressStall},
		{budgetCfg, metrics.ReasonCycleBudget},
	} {
		cold, d, coldDiag := runNormalized(t, c.cfg)
		if d == nil || d.Reason != c.reason {
			t.Fatalf("untraced run diagnosis %v, want %s", d, c.reason)
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
