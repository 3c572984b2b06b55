package gpu

import (
	"awgsim/internal/event"
	"awgsim/internal/metrics"
)

// result assembles the run's metrics from the machine, the memory system,
// the atomic pipeline's characterization, and the policy's own tally when
// it keeps one.
func (m *Machine) result(end event.Cycle) metrics.Result {
	ms := m.mem.Stats()
	res := metrics.Result{
		Benchmark:  m.spec.Name,
		Policy:     m.pol.Name(),
		Deadlocked: m.deadlocked,
		Diagnosis:  m.diag,

		Atomics:      ms.Atomics + ms.LocalAtomics,
		BankWait:     ms.BankWait,
		ContextBytes: ms.ContextBytes,

		Counters: m.Count,

		ContextKB: float64(m.spec.ContextBytes(m.cfg.SIMDWidth)) / 1024,
		MaxWait:   m.maxWait,
	}
	if p, ok := m.pol.(interface{ Tally(*metrics.Counters) }); ok {
		p.Tally(&res.Counters)
	}
	res.Completed = m.kernels[0].completed
	if m.deadlocked {
		res.Cycles = uint64(end)
	} else {
		res.Cycles = uint64(m.kernels[0].doneAt)
	}
	for _, w := range m.wgs {
		res.Breakdown.Running += w.runningCycles
		res.Breakdown.Waiting += w.waitingCycles
	}
	// Table 2 characterization.
	sum := m.atomics.characterization()
	res.SyncVars = sum.syncVars
	res.VarStats = sum.stats
	return res
}
