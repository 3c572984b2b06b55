// Package syncmon seeds map operations on and off the monitor's hot
// paths: the package-path suffix puts it in the analyzer's syncmon scope.
package syncmon

type monitor struct {
	conds   map[uint64]int
	waiters map[uint64][]int
	stats   map[string]int
}

// Observe is a hot root: direct map reads, writes, ranges, and deletes are
// all flagged.
func (m *monitor) Observe(addr uint64) {
	c := m.conds[addr]             // want `map indexed in Observe, reachable from a bank-service/wake hot path`
	m.conds[addr] = c + 1          // want `map indexed in Observe, reachable from a bank-service/wake hot path`
	for a, ws := range m.waiters { // want `map ranged over in Observe, reachable from a bank-service/wake hot path`
		_ = a
		_ = ws
	}
	delete(m.conds, addr) // want `map deleted from in Observe, reachable from a bank-service/wake hot path`
	if len(m.conds) > 0 { // len carries no hashing; allowed
		return
	}
}

// Register reaches bump through an ordinary call: the helper is hot too.
func (m *monitor) Register(addr uint64) {
	m.bump(addr)
}

func (m *monitor) bump(addr uint64) {
	m.conds[addr]++ // want `map indexed in bump, reachable from a bank-service/wake hot path`
}

// spill reaches drainOne only as a function value (a pooled-task callee
// pattern): the reference graph counts value references as edges, so the
// callee is still hot.
func (m *monitor) spill(addr uint64) {
	step := m.drainOne
	step(addr)
}

// wakeAllOnAddr reaches sweepTwo two calls deep: the flood from the root
// covers the whole chain.
func (m *monitor) wakeAllOnAddr(addr uint64) {
	m.sweepOne(addr)
}

func (m *monitor) sweepOne(addr uint64) { m.sweepTwo(addr) }

func (m *monitor) sweepTwo(addr uint64) {
	delete(m.waiters, addr) // want `map deleted from in sweepTwo, reachable from a bank-service/wake hot path`
}

func (m *monitor) drainOne(addr uint64) {
	m.waiters[addr] = nil // want `map indexed in drainOne, reachable from a bank-service/wake hot path`
}

// report is never reached from a root: its map traffic is cold and legal.
func (m *monitor) report() int {
	total := 0
	for _, n := range m.stats {
		total += n
	}
	return total
}
