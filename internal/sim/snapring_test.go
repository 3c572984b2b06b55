package sim

import (
	"strings"
	"testing"

	"awgsim/internal/metrics"
)

// TestSnapshotRingAttachesTrace drives the time-travel diagnosis end to
// end: an oversubscribed Baseline launch deadlocks (residents spin at the
// exit barrier, pending WGs can never dispatch), and running it with a
// snapshot ring must (a) leave every simulated observable identical to the
// ring-less run — the ring is pure instrumentation — and (b) attach the
// replayed pre-stall timeline to the diagnosis, (c) replayed to exactly the
// diagnosed state. A run cut by its CycleBudget must replay faithfully too.
func TestSnapshotRingAttachesTrace(t *testing.T) {
	cfg := quickConfig("SPM_G", "Baseline", false, 0)
	cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU

	coldSession, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRes := coldSession.Machine().Run()
	if coldRes.Diagnosis == nil {
		t.Fatal("oversubscribed Baseline run did not produce a diagnosis")
	}
	if coldRes.Diagnosis.Trace != "" {
		t.Fatalf("ring-less run attached a trace:\n%s", coldRes.Diagnosis.Trace)
	}

	ringCfg := cfg
	ringCfg.GPU.SnapshotEvery = 100_000
	ringSession, err := NewSession(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	ringRes := ringSession.Machine().Run()
	if ringRes.Diagnosis == nil {
		t.Fatal("ring run did not produce a diagnosis")
	}
	if !strings.Contains(ringRes.Diagnosis.String(), "pre-stall trace") {
		t.Errorf("diagnosis rendering omits the trace:\n%s", ringRes.Diagnosis.String())
	}
	if r := ringRes.Diagnosis.Reason; r != metrics.ReasonProgressStall {
		t.Fatalf("ring run diagnosed %s, want %s", r, metrics.ReasonProgressStall)
	}
	requireFaithfulReplay(t, ringRes.Diagnosis)

	// The ring must not perturb the simulation: identical results and an
	// identical diagnosis apart from the attached trace.
	if got, want := ringRes.Diagnosis.Summary(), coldRes.Diagnosis.Summary(); got != want {
		t.Errorf("ring run diagnosis diverged:\n  ring: %s\n  cold: %s", got, want)
	}
	ringRes.Diagnosis.Trace = ""
	if got, want := ringRes.Diagnosis.String(), coldRes.Diagnosis.String(); got != want {
		t.Errorf("ring run diagnosis body diverged:\n  ring: %s\n  cold: %s", got, want)
	}
	ringNorm, _ := normalize(ringRes)
	coldNorm, _ := normalize(coldRes)
	if ringNorm != coldNorm {
		t.Errorf("ring run result diverged:\n  ring: %+v\n  cold: %+v", ringNorm, coldNorm)
	}

	// The same launch cut by its CycleBudget, before the watchdog fires.
	budgetCfg := ringCfg
	budgetCfg.CycleBudget = 1_000_000
	budgetSession, err := NewSession(budgetCfg)
	if err != nil {
		t.Fatal(err)
	}
	budgetRes := budgetSession.Machine().Run()
	if d := budgetRes.Diagnosis; d == nil || d.Reason != metrics.ReasonCycleBudget {
		t.Fatalf("budgeted ring run diagnosis %v, want %s", d, metrics.ReasonCycleBudget)
	}
	requireFaithfulReplay(t, budgetRes.Diagnosis)
}

// requireFaithfulReplay fails when a diagnosis carries no pre-stall trace
// or when the trace header reports that the replay diverged from the
// diagnosed run (gpu.Machine's runtime replay check).
func requireFaithfulReplay(t *testing.T, d *metrics.Diagnosis) {
	t.Helper()
	if d.Trace == "" {
		t.Fatalf("%s run attached no pre-stall trace", d.Reason)
	}
	for _, line := range strings.Split(d.Trace, "\n") {
		if strings.HasPrefix(line, "replay diverged") {
			t.Errorf("%s run: %s", d.Reason, line)
		}
	}
}
