package experiments

import (
	"fmt"
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/kernels"
	"awgsim/internal/litmus"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
	"awgsim/internal/trace"
)

// pastProof runs cfg to its end. When the deadlock proof ended the run, it
// drives the machine one more full progress window and returns an error if
// any WG progresses there: completes, ends a wait episode or is dispatched
// for the first time. (A frozen waiter switched out under a monitor policy
// may be restored and park again; that moves nothing.) It reports whether
// the proof ended the run.
func pastProof(cfg sim.Config) (bool, error) {
	s, err := sim.NewSession(cfg)
	if err != nil {
		return false, err
	}
	defer s.Release()
	m := s.Machine()
	m.Prepare()
	m.RunTo(m.CycleLimit())
	res := m.FinishRun()
	if d := res.Diagnosis; d == nil || d.Reason != metrics.ReasonProvenDeadlock {
		return false, nil
	}
	at := m.Engine().Now()
	end := at + event.Cycle(m.Config().ProgressWindow)
	// Short slices keep each recorder small: busy-waiters log every poll.
	step := event.Cycle(m.Config().ProgressWindow / 64)
	for c := at; c < end; {
		c = min(c+step, end)
		rec := trace.NewRecorder(0)
		m.SetTracer(rec)
		m.RunTo(c)
		n := rec.CountByKind()
		if moved := n[trace.Start] + n[trace.Acquired] + n[trace.Finish]; moved > 0 {
			return true, fmt.Errorf("%s under %s: %d WG starts, episode ends or finishes by cycle %d, after the proof at %d",
				res.Benchmark, res.Policy, moved, c, at)
		}
	}
	return true, nil
}

// TestProofHoldsPastItsTick continues each run the deadlock proof ends for
// one more progress window, and no WG may progress there. The runs are the
// quick suite's deadlocking cells: fig15's Baseline and Sleep cells,
// oversweep's 2x and 4x Baseline cells and the faults table's Baseline row
// (each of which the proof must end), and the litmus experiment's seed-1
// sweep, whose IFP-only patterns wedge Baseline and Sleep and whose
// deliberately broken waits wedge every policy.
func TestProofHoldsPastItsTick(t *testing.T) {
	o := Options{Quick: true}
	var cfgs []sim.Config
	for _, b := range kernels.All() {
		cfgs = append(cfgs, o.simConfig(cell{bench: b, policy: "Baseline", oversub: true, iters: fig15Iters(o)}))
		if isBackoffBench(b) {
			cfgs = append(cfgs, o.simConfig(cell{bench: b, policy: "Sleep", oversub: true, iters: fig15Iters(o)}))
		}
	}
	cap1 := o.gpuConfig().NumCUs * o.gpuConfig().MaxWGsPerCU
	for _, b := range []string{"SPM_G", "TB_LG"} {
		for _, mult := range []int{2, 4} {
			cfgs = append(cfgs, o.simConfig(cell{bench: b, policy: "Baseline", numWGs: mult * cap1}))
		}
		for _, s := range o.faultSchedules() {
			cfgs = append(cfgs, o.simConfig(o.faultCell(b, "Baseline", s.Name)))
		}
	}
	mustProve := len(cfgs)
	seed, count := o.litmusScale()
	type run struct {
		name, policy string
		wgCap        int
	}
	seen := make(map[run]bool)
	for _, l := range litmus.Generate(seed, count) {
		for _, pol := range litmusPolicies {
			for _, occ := range litmus.Occupancies() {
				r := run{l.Encode(), pol, occ.Cap(l.NumWGs())}
				if !seen[r] {
					seen[r] = true
					cfgs = append(cfgs, litmus.RunConfig(l, pol, r.wgCap, 0))
				}
			}
		}
	}

	proven := make([]bool, len(cfgs))
	errs := make([]error, len(cfgs))
	sim.ForEach(len(cfgs), 0, func(i int) { proven[i], errs[i] = pastProof(cfgs[i]) })
	n := 0
	for i, err := range errs {
		if err != nil {
			t.Error(err)
		}
		if proven[i] {
			n++
		} else if i < mustProve {
			t.Errorf("%s under %s (%d WGs): the proof did not end the run", cfgs[i].Benchmark, cfgs[i].Policy, cfgs[i].Params.NumWGs)
		}
	}
	t.Logf("%d of %d runs proven deadlocked; none progressed in the window after", n, len(cfgs))
}
