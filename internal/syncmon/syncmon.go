// Package syncmon implements the paper's Synchronization Monitor: the
// hardware block attached to the GPU L2 that tracks waiting conditions
// (address, expected-value pairs), the waiting-WG list, the monitored bit
// per L2 tag (with line pinning), and the Monitor Log through which the
// structure virtualizes its finite capacity into global memory
// (Section V.A).
//
// The SyncMon observes every atomic at bank-service time. In checking mode
// (MonR/MonNR/AWG) it evaluates waiting conditions against the updated
// value and resumes the number of waiters a ResumeSelector chooses; in
// sporadic mode (MonRS) it wakes every waiter registered on an address the
// moment the address is touched, without checking — the relaxed
// monitor/mwait-style semantics the paper shows to be dominated by
// unnecessary resumes.
package syncmon

import (
	"fmt"

	"awgsim/internal/gpu"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// OpClass coarsely classifies what a waiter will do when resumed: re-try a
// read (every such waiter can succeed at once) or re-try a read-modify-write
// acquire (only one can succeed). The MinResume oracle keys off this.
type OpClass int

const (
	ClassLoad OpClass = iota
	ClassRMW
)

// ClassOf maps an atomic op to its class.
func ClassOf(op gpu.AtomicOp) OpClass {
	if op == gpu.OpLoad {
		return ClassLoad
	}
	return ClassRMW
}

// ResumeSelector decides how many of a met condition's waiters resume.
// AWG's Bloom-filter predictor, the fixed all/one policies, and the oracle
// all implement this.
type ResumeSelector interface {
	// ObserveUpdate is called for every write-class atomic applied to a
	// monitored address.
	ObserveUpdate(addr mem.Addr, newVal int64)
	// Select returns how many of the condition's waiters to resume, in
	// [1, waiters]. classes lists the waiters' op classes in queue order.
	Select(addr mem.Addr, want int64, classes []OpClass) int
	// AddressUnmonitored is called when an address loses its last waiting
	// condition, letting predictors reset per-address state.
	AddressUnmonitored(addr mem.Addr)
}

// RegisterResult reports where a waiter's condition landed.
type RegisterResult int

const (
	// Registered: the condition and waiter fit in the SyncMon cache.
	Registered RegisterResult = iota
	// Spilled: SyncMon capacity was exhausted; the entry went to the
	// Monitor Log and the CP will check it periodically.
	Spilled
	// Rejected: the Monitor Log is full too. Per the paper's Mesa
	// semantics the WG does not enter a waiting state and must retry its
	// waiting atomic.
	Rejected
)

func (r RegisterResult) String() string {
	switch r {
	case Registered:
		return "registered"
	case Spilled:
		return "spilled"
	default:
		return "rejected"
	}
}

// Config sizes the SyncMon per Section V.C: a 4-way, 256-set condition
// cache (1024 conditions) and a 512-entry waiting-WG list.
type Config struct {
	Sets         int // condition cache sets (256)
	Ways         int // condition cache ways (4)
	WaitListSize int // waiting WG list capacity (512)
	LogCapacity  int // Monitor Log entries (circular buffer in memory)
	Seed         uint64
	Sporadic     bool // wake on any access without checking conditions
}

// DefaultConfig returns the paper's geometry.
func DefaultConfig() Config {
	return Config{Sets: 256, Ways: 4, WaitListSize: 512, LogCapacity: 4096, Seed: 0x5eed}
}

// WakeFunc delivers a resume notification to the scheduling policy. met
// reports whether the SyncMon verified the waiter's condition (false for
// sporadic notifications, which are hints in the Mesa sense).
type WakeFunc func(wg gpu.WGID, addr mem.Addr, want int64, met bool)

type waiter struct {
	wg    gpu.WGID
	class OpClass
}

// LogEntry is one spilled waiting condition: "the monitored address, the
// waiting value, and the waiting WG ID".
type LogEntry struct {
	Addr mem.Addr
	Want int64
	Cmp  gpu.Cmp
	WG   gpu.WGID
}

// MonitorLog is the circular buffer in global memory the SyncMon spills to
// and the CP drains. The modelled buffer always holds capacity entries; the
// host allocates the ring on the first Push, so a run that never spills
// pays nothing for it. An unallocated ring reads as an empty one.
type MonitorLog struct {
	capacity int
	entries  []LogEntry // nil until the first Push
	dead     []bool
	head     int
	size     int // occupied ring slots, tombstones included (gates Push)
	live     int // non-tombstoned entries
	maxLive  int // high-water mark of live
}

// NewMonitorLog builds a log with the given capacity.
func NewMonitorLog(capacity int) *MonitorLog {
	return &MonitorLog{capacity: capacity}
}

// allocRing gives the log its ring storage if it has none yet.
func (l *MonitorLog) allocRing() {
	if l.entries == nil {
		l.entries = make([]LogEntry, l.capacity)
		l.dead = make([]bool, l.capacity)
	}
}

// Push appends an entry; it reports false when the log is full.
func (l *MonitorLog) Push(e LogEntry) bool {
	if l.size == l.capacity {
		return false
	}
	l.allocRing()
	tail := (l.head + l.size) % l.capacity
	l.entries[tail] = e
	l.dead[tail] = false
	l.size++
	l.live++
	if l.live > l.maxLive {
		l.maxLive = l.live
	}
	return true
}

// Pop removes and returns the oldest live entry.
func (l *MonitorLog) Pop() (LogEntry, bool) {
	for l.size > 0 {
		e, dead := l.entries[l.head], l.dead[l.head]
		l.head = (l.head + 1) % l.capacity
		l.size--
		if !dead {
			l.live--
			return e, true
		}
	}
	return LogEntry{}, false
}

// Len reports the live entry count; tombstoned entries still occupy ring
// slots (and gate Push) but are not waiting conditions and do not count.
func (l *MonitorLog) Len() int { return l.live }

// MaxLen reports the high-water mark of live entries.
func (l *MonitorLog) MaxLen() int { return l.maxLive }

// Remove tombstones all live entries for the given waiter/condition (used
// when a waiter's timeout fires before the CP drains it). A waiter that is
// not in the ring leaves it unchanged.
func (l *MonitorLog) Remove(wg gpu.WGID, addr mem.Addr, want int64) {
	for i := 0; i < l.size; i++ {
		idx := (l.head + i) % l.capacity
		e := l.entries[idx]
		if !l.dead[idx] && e.WG == wg && e.Addr == addr && e.Want == want {
			l.dead[idx] = true
			l.live--
		}
	}
}

// SyncMon is the monitor block. It subscribes to the machine's atomic
// stream and owns the condition cache, waiting list and Monitor Log.
type SyncMon struct {
	cfg      Config
	m        *gpu.Machine
	hash     hashutil.Universal
	store    condStore // slab-backed condition cache + address index
	waiters  int       // total waiters in the cache
	log      *MonitorLog
	selector ResumeSelector
	wake     WakeFunc

	// High-water marks for Figure 13 / the hardware-overhead analysis.
	maxConds, maxWaiters, maxMonitored int
	conds                              int

	// observe() scratch, reused across calls: a hot barrier's release makes
	// the wake fan-out fire on every update, so it must not allocate. The
	// sporadic wake-all reuses metScratch for the entries it empties and
	// wakeScratch for the waiters it resumes.
	metScratch  []int32
	wakeScratch []wakeup
	clsScratch  []OpClass
}

// wakeup is one pending resume collected during an observe pass; wakes are
// delivered after all condition bookkeeping so callbacks see settled state.
type wakeup struct {
	wt   waiter
	want int64
}

// New builds a SyncMon on machine m. selector picks resume counts in
// checking mode (ignored when cfg.Sporadic); wake delivers notifications.
func New(cfg Config, m *gpu.Machine, selector ResumeSelector, wake WakeFunc) (*SyncMon, error) {
	if cfg.Sets < 0 || cfg.Ways <= 0 || cfg.WaitListSize < 0 || cfg.LogCapacity <= 0 {
		return nil, fmt.Errorf("syncmon: bad config %+v", cfg)
	}
	s := &SyncMon{
		cfg:      cfg,
		m:        m,
		hash:     hashutil.NewUniversal(cfg.Seed, max(cfg.Sets, 1)),
		store:    newCondStore(max(cfg.Sets, 1), cfg.Ways, len(m.Spec().IR.Pool)),
		log:      NewMonitorLog(cfg.LogCapacity),
		selector: selector,
		wake:     wake,
	}
	m.OnAtomicApply(s.observe)
	return s, nil
}

// Degrade shrinks the condition cache to newWays ways per set and the
// waiting-WG list to newWaitList entries, modelling a mid-run capacity
// fault (fault injection). Entries and waiters beyond the new capacity are
// evicted youngest-first and spilled to the Monitor Log; when even the log
// is full, the displaced waiter is woken unchecked (met=false, a Mesa-style
// hint) so nobody is stranded — its retry re-registers or falls back to its
// policy timeout. Growing capacity is ignored: faults only take away.
func (s *SyncMon) Degrade(newWays, newWaitList int) {
	if newWays < 1 {
		newWays = 1
	}
	if newWaitList < 0 {
		newWaitList = 0
	}
	type displaced struct {
		wt   waiter
		addr mem.Addr
		want int64
		cmp  gpu.Cmp
	}
	var out []displaced
	if newWays < s.cfg.Ways {
		s.cfg.Ways = newWays
		for si := range s.store.setLen {
			for s.store.setSize(si) > newWays {
				// Evict the youngest entry of the overfull set (the last way).
				e := s.store.setEnt[si*s.store.stride+s.store.setSize(si)-1]
				c := s.store.at(e)
				for w := c.wHead; w != nilRef; w = s.store.wnodes[w].next {
					out = append(out, displaced{s.store.wnodes[w].wt, c.addr, c.want, c.cmp})
				}
				s.waiters -= s.store.clearWaiters(e)
				s.dropEntry(e)
			}
		}
	}
	if newWaitList < s.cfg.WaitListSize {
		s.cfg.WaitListSize = newWaitList
		// Shed the youngest waiters (walking sets in order, entries back to
		// front) until the list fits.
		for si := range s.store.setLen {
			if s.waiters <= newWaitList {
				break
			}
			for i := s.store.setSize(si) - 1; i >= 0 && s.waiters > newWaitList; i-- {
				e := s.store.setEnt[si*s.store.stride+i]
				c := s.store.at(e)
				for c.wLen > 0 && s.waiters > newWaitList {
					wt := s.store.shedTailWaiter(e)
					s.waiters--
					out = append(out, displaced{wt, c.addr, c.want, c.cmp})
				}
				if c.wLen == 0 {
					s.dropEntry(e)
				}
			}
		}
	}
	for _, d := range out {
		if s.spill(d.wt.wg, d.addr, d.want, d.cmp) == Rejected {
			s.wake(d.wt.wg, d.addr, d.want, false)
		}
	}
}

// Log exposes the Monitor Log for the Command Processor to drain.
func (s *SyncMon) Log() *MonitorLog { return s.log }

// StateBytes estimates the monitor's simulated state: the condition cache's
// set arrays at their configured geometry, condition and waiter slabs and
// address index, and the Monitor Log ring at its full capacity. Like the
// ring, the set arrays are charged whether or not the host has built them
// yet.
func (s *SyncMon) StateBytes() int {
	cs := &s.store
	return 128 + 4*(cs.sets*cs.stride+cs.sets) + 40*len(cs.ents) +
		24*len(cs.wnodes) + 24*cs.byAddr.Len() + 33*s.log.capacity + 24
}

// setIndex hashes (addr, want) per Section V.C: the word address is shifted
// up and ORed with the waiting value, then universally hashed into a set.
func (s *SyncMon) setIndex(addr mem.Addr, want int64) int {
	key := uint64(addr>>3)<<8 | uint64(want)&0xff
	return s.hash.Hash(key)
}

func (s *SyncMon) findEntry(addr mem.Addr, want int64, cmp gpu.Cmp) int32 {
	return s.store.find(s.setIndex(addr, want), addr, want, cmp)
}

// Register records wg as waiting for mem[v.Addr] == want. Called at bank
// service time of a failing waiting atomic (race-free) or of a wait
// instruction's arm (with the window of vulnerability upstream).
func (s *SyncMon) Register(wg gpu.WGID, v gpu.Var, want int64, cmp gpu.Cmp, class OpClass) RegisterResult {
	addr := v.Addr.WordAligned()
	if s.cfg.Sets == 0 || s.cfg.WaitListSize == 0 {
		return s.spill(wg, addr, want, cmp)
	}
	si := s.setIndex(addr, want)
	e := s.store.find(si, addr, want, cmp)
	if e == nilRef {
		if s.store.setSize(si) >= s.cfg.Ways {
			return s.spill(wg, addr, want, cmp)
		}
		var first bool
		e, first = s.store.insert(si, addr, want, cmp)
		s.conds++
		if first {
			s.m.Mem().L2().Pin(addr)
		}
		s.noteHighWater()
	}
	if s.waiters >= s.cfg.WaitListSize {
		if s.store.at(e).wLen == 0 {
			s.dropEntry(e)
		}
		return s.spill(wg, addr, want, cmp)
	}
	s.store.pushWaiter(e, waiter{wg: wg, class: class})
	s.waiters++
	s.noteHighWater()
	return Registered
}

func (s *SyncMon) spill(wg gpu.WGID, addr mem.Addr, want int64, cmp gpu.Cmp) RegisterResult {
	if !s.log.Push(LogEntry{Addr: addr, Want: want, Cmp: cmp, WG: wg}) {
		s.m.Count.LogRejects++
		return Rejected
	}
	s.m.Count.LogSpills++
	if s.log.MaxLen() > s.m.Count.MaxLogEntries {
		s.m.Count.MaxLogEntries = s.log.MaxLen()
	}
	return Spilled
}

// Unregister removes wg's condition from the cache, reporting whether it
// was found there; used when a policy-side timeout ends the wait. A waiter
// lives in exactly one place — the cache or (spilled) the log/CP side — so
// on a cache hit there is nothing on the CP side to withdraw, and the
// caller unregisters with the CP only on a miss.
func (s *SyncMon) Unregister(wg gpu.WGID, v gpu.Var, want int64, cmp gpu.Cmp) bool {
	addr := v.Addr.WordAligned()
	e := s.findEntry(addr, want, cmp)
	if e == nilRef {
		return false
	}
	found := s.store.removeWaiter(e, wg)
	if found {
		s.waiters--
	}
	if s.store.at(e).wLen == 0 {
		s.dropEntry(e)
	}
	return found
}

// dropEntry frees a condition entry and unpins/unmonitors as needed.
func (s *SyncMon) dropEntry(e int32) {
	addr, last := s.store.drop(e)
	s.conds--
	if last {
		s.m.Mem().L2().Unpin(addr)
		s.selector.AddressUnmonitored(addr)
	}
}

// observe is the machine's atomic-apply hook: the monitored-bit check at
// the L2 bank.
func (s *SyncMon) observe(by *gpu.WG, v gpu.Var, op gpu.AtomicOp, old, new int64) {
	addr := v.Addr.WordAligned()
	head := s.store.firstOnAddr(addr)
	if head == nilRef {
		return
	}
	if s.cfg.Sporadic {
		// Any access to a monitored address resumes every registered
		// waiter, unchecked ("sporadic" notifications).
		s.wakeAllOnAddr(addr)
		return
	}
	if !op.IsWrite() {
		// Only updates re-check conditions (Figure 12 step 3 passes the
		// *updated* value). A condition that was already true at a waiting
		// atomic's bank instant never registers, so no wake-up is lost by
		// ignoring reads — but a resume-one policy's remaining waiters
		// must wait for another matching update or their timeout, the
		// paper's stated deficiency of MonNR-One at barriers.
		return
	}
	s.selector.ObserveUpdate(addr, new)
	met := s.metScratch[:0]
	for e := head; e != nilRef; e = s.store.at(e).addrNext {
		c := s.store.at(e)
		if c.wLen > 0 && c.cmp.Test(new, c.want) {
			met = append(met, e)
		}
	}
	wakeups := s.wakeScratch[:0]
	for _, e := range met {
		c := s.store.at(e)
		classes := s.clsScratch[:0]
		for w := c.wHead; w != nilRef; w = s.store.wnodes[w].next {
			classes = append(classes, s.store.wnodes[w].wt.class)
		}
		s.clsScratch = classes
		n := s.selector.Select(addr, c.want, classes)
		if n < 1 {
			n = 1
		}
		if n > int(c.wLen) {
			n = int(c.wLen)
		}
		want := c.want
		for i := 0; i < n; i++ {
			wakeups = append(wakeups, wakeup{s.store.popWaiter(e), want})
		}
		s.waiters -= n
		if c.wLen == 0 {
			s.dropEntry(e)
		}
	}
	s.metScratch = met[:0]
	s.wakeScratch = wakeups[:0]
	for _, wu := range wakeups {
		s.wake(wu.wt.wg, addr, wu.want, true)
	}
}

// wakeAllOnAddr implements sporadic notification: every waiter on every
// condition of addr resumes, unchecked. The walk is set-major (set scan
// order, not registration order), matching the historical wake sequence.
func (s *SyncMon) wakeAllOnAddr(addr mem.Addr) {
	resumed := s.wakeScratch[:0]
	emptied := s.metScratch[:0]
	for si := range s.store.setLen {
		base := si * s.store.stride
		for j := 0; j < s.store.setSize(si); j++ {
			e := s.store.setEnt[base+j]
			c := s.store.at(e)
			if c.addr != addr {
				continue
			}
			for w := c.wHead; w != nilRef; w = s.store.wnodes[w].next {
				resumed = append(resumed, wakeup{s.store.wnodes[w].wt, c.want})
			}
			s.waiters -= s.store.clearWaiters(e)
			emptied = append(emptied, e)
		}
	}
	// Drop entries after the walk; drop splices the set arrays, so doing it
	// mid-walk would shift unvisited entries under the index.
	for _, e := range emptied {
		s.dropEntry(e)
	}
	s.metScratch = emptied[:0]
	s.wakeScratch = resumed[:0]
	for _, wu := range resumed {
		s.wake(wu.wt.wg, addr, wu.want, false)
	}
}

// Waiters reports the current waiting-WG list occupancy.
func (s *SyncMon) Waiters() int { return s.waiters }

// Conditions reports the current condition cache occupancy.
func (s *SyncMon) Conditions() int { return s.conds }

// MonitoredAddrs reports how many distinct addresses are monitored.
func (s *SyncMon) MonitoredAddrs() int { return s.store.monitoredAddrs() }

func (s *SyncMon) noteHighWater() {
	if s.conds > s.maxConds {
		s.maxConds = s.conds
	}
	if s.waiters > s.maxWaiters {
		s.maxWaiters = s.waiters
	}
	if n := s.store.monitoredAddrs(); n > s.maxMonitored {
		s.maxMonitored = n
	}
	if s.maxConds > s.m.Count.MaxConditions {
		s.m.Count.MaxConditions = s.maxConds
	}
	if s.maxWaiters > s.m.Count.MaxWaitingWGs {
		s.m.Count.MaxWaitingWGs = s.maxWaiters
	}
	if s.maxMonitored > s.m.Count.MaxMonitoredVar {
		s.m.Count.MaxMonitoredVar = s.maxMonitored
	}
}
