// Package gpu seeds CU-issue and bank-service map traffic: the compute
// chunk chain, the atomic apply leg and the wait episode's begin and end
// are hot roots, construction-time code is not.
package gpu

type WG struct {
	cu      int
	stalled bool
}

type computeUnit struct {
	resident map[int]*WG
}

type Machine struct {
	cus []*computeUnit
	// Table 2 characterization: writes per variable and waiters per
	// condition.
	writes  map[uint64]int
	waiters map[[2]int64]int
}

// Task mirrors the pooled event.Task the chunk chain re-arms.
type Task struct {
	Env [2]any
	I   [1]int64
}

// runComputeChunk is the pooled-task callee of every compute chunk.
func runComputeChunk(t *Task) {
	t.Env[0].(*Machine).chunk(t.Env[1].(*WG), t.I[0])
}

func (m *Machine) chunk(w *WG, remaining int64) int64 {
	return remaining * m.issueFactor(w)
}

// issueFactor is reached through chunk, so its map range is hot.
func (m *Machine) issueFactor(w *WG) int64 {
	executing := int64(0)
	for _, r := range m.cus[w.cu].resident { // want `map ranged over in issueFactor, reachable from a CU-issue/bank-service hot path`
		if !r.stalled {
			executing++
		}
	}
	return executing
}

// runAtomicApply is the pooled-task callee of every atomic's bank-service
// leg.
func runAtomicApply(t *Task) {
	m := t.Env[0].(*Machine)
	m.writes[uint64(t.I[0])]++ // want `map indexed in runAtomicApply, reachable from a CU-issue/bank-service hot path`
}

func (m *Machine) beginWait(addr uint64, want int64) {
	m.waiters[[2]int64{int64(addr), want}]++ // want `map indexed in beginWait, reachable from a CU-issue/bank-service hot path`
}

func (m *Machine) EndWait(addr uint64, want int64) {
	m.charMet(addr, want)
}

// charMet is reached through EndWait, so its map delete is hot.
func (m *Machine) charMet(addr uint64, want int64) {
	delete(m.waiters, [2]int64{int64(addr), want}) // want `map deleted from in charMet, reachable from a CU-issue/bank-service hot path`
}

// newMachine runs once at construction: filling the maps there is cold.
func newMachine(n int) *Machine {
	m := &Machine{writes: map[uint64]int{}, waiters: map[[2]int64]int{}}
	for i := 0; i < n; i++ {
		cu := &computeUnit{resident: map[int]*WG{}}
		cu.resident[i] = &WG{cu: i}
		m.cus = append(m.cus, cu)
	}
	return m
}
