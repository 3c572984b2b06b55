package gpu

// The flood over the package's reference graph: a callee that a root only
// hands over as a value, a mutually recursive pair, and a function that
// only cold code references.

// pool mirrors the event engine's task pool: NewTask stores the callee,
// which runs later on the same hot path.
type pool struct {
	fns []func(*Task)
}

func (p *pool) NewTask(fn func(*Task)) *Task {
	p.fns = append(p.fns, fn)
	return &Task{}
}

// computeStep never calls runStepMap; passing it to NewTask makes it hot.
func computeStep(p *pool, m *Machine) *Task {
	t := p.NewTask(runStepMap)
	t.Env[0] = m
	return t
}

func runStepMap(t *Task) {
	t.Env[0].(*Machine).writes[uint64(t.I[0])] = 0 // want `map indexed in runStepMap, reachable from a CU-issue/bank-service hot path`
}

// runCompute reaches ping and pong, which call each other: the flood
// visits each once and stops.
func runCompute(t *Task) {
	ping(t.Env[0].(*Machine), t.I[0])
}

func ping(m *Machine, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return pong(m, n-1)
}

func pong(m *Machine, n int64) int64 {
	for k := range m.writes { // want `map ranged over in pong, reachable from a CU-issue/bank-service hot path`
		n += int64(k)
	}
	return ping(m, n)
}

// statsFunc is cold (reached from no root), so the function it references
// is cold too.
func statsFunc() func(*Machine) int { return coldStats }

func coldStats(m *Machine) int {
	return m.writes[0]
}
