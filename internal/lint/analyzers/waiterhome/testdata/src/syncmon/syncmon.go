// Package syncmon seeds single-home violations against stand-ins for the
// SyncMon condition cache and the Monitor Log ring. The flagged shapes are
// the PR 3 lost-wakeup bugs: code outside the approved transfer functions
// reaching into a waiter container directly.
package syncmon

type entry struct {
	addr int64
	want int64
}

// MonitorLog mirrors the ring's protected state.
type MonitorLog struct {
	entries []entry
	dead    []bool
	head    int
	size    int
	live    int
	maxLive int
}

func NewMonitorLog(n int) *MonitorLog {
	return &MonitorLog{entries: make([]entry, n), dead: make([]bool, n), size: n}
}

// Push is an approved ring accessor: its writes are the transfer function.
func (l *MonitorLog) Push(e entry) {
	l.entries[l.head%l.size] = e
	l.head++
	l.live++
	if l.live > l.maxLive {
		l.maxLive = l.live
	}
}

// Remove is the sanctioned way to take an entry out of the ring.
func (l *MonitorLog) Remove(i int) {
	l.dead[i] = true
	l.live--
}

// SyncMon mirrors the condition cache's protected state.
type SyncMon struct {
	store   map[int64][]entry
	conds   int
	waiters map[int64]int
	log     *MonitorLog
}

// Register is approved for the cache fields.
func (s *SyncMon) Register(id int64, e entry) {
	s.waiters[id]++
	s.store[e.addr] = append(s.store[e.addr], e)
	s.conds++
}

// Unregister may touch the cache, but the ring write below is the PR 3 bug
// shape: tombstoning the Monitor Log behind the CP's back instead of going
// through MonitorLog.Remove, leaving the waiter without a home.
func (s *SyncMon) Unregister(id int64) {
	delete(s.waiters, id) // approved: Unregister is a cache transfer function
	s.log.dead[0] = true  // want `MonitorLog\.dead holds single-home waiter state`
	s.log.live--          // want `MonitorLog\.live holds single-home waiter state`
}

// evictHalf is not an approved transfer function for the cache.
func (s *SyncMon) evictHalf() {
	s.store[0] = nil      // want `SyncMon\.store holds single-home waiter state`
	delete(s.waiters, 0)  // want `SyncMon\.waiters holds single-home waiter state`
	borrow(&s.conds)      // want `SyncMon\.conds holds single-home waiter state`
	s.log.Remove(0)       // routed through the approved accessor: fine
	_ = len(s.store)      // reads are unrestricted
	_, ok := s.waiters[0] // reads are unrestricted
	_ = ok
}

// rewindHead is not an approved ring accessor: a partial rewind outside
// Push/Pop/Remove is exactly the two-homes hazard the rule exists for.
func (l *MonitorLog) rewindHead(head int) {
	l.head = head // want `MonitorLog\.head holds single-home waiter state`
}

func borrow(n *int) {}
