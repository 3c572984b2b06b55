// Package gpu seeds CU-issue map traffic: the compute chunk chain is a hot
// root, construction-time code is not.
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
	for _, r := range m.cus[w.cu].resident { // want `map ranged over in issueFactor, reachable from a CU-issue hot path`
		if !r.stalled {
			executing++
		}
	}
	return executing
}

// newMachine runs once at construction: filling the maps there is cold.
func newMachine(n int) *Machine {
	m := &Machine{}
	for i := 0; i < n; i++ {
		cu := &computeUnit{resident: map[int]*WG{}}
		cu.resident[i] = &WG{cu: i}
		m.cus = append(m.cus, cu)
	}
	return m
}
