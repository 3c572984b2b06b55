package sim

import (
	"fmt"
	"sync/atomic"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/metrics"
)

// Prefix-forked sweeps: a fault-injection sweep runs many configs that are
// identical except for their fault schedule, and faults land only after the
// kernel has built up waiting state (cycle ~10k+). Every member of such a
// group simulates the exact same prefix — so the planner simulates it once,
// snapshots the machine just before the earliest fault any member injects,
// and completes each member by restoring the snapshot and splicing its
// faults onto the calendar under sequence numbers reserved at construction
// (fault.ArmReserved). A forked member is bit-identical to its cold run:
// the reservation pins every fault to the calendar position a cold arm
// gives it, and unused reservations shift later sequence numbers uniformly,
// which cannot reorder same-cycle events. CI verifies this by running the
// golden suite forked and unforked and diffing byte-for-byte.
//
// Forking composes with the run cache (runcache.go): each member's result
// is published under its own fingerprint, and members already cached replay
// instead of re-running. The simulated-work ledger stays identical to the
// cold path — each member accounts its full run — while ForkStats tracks
// the wall-clock story: forked runs, prefix cycles not re-simulated, and
// snapshot footprint.

var (
	forkOff              atomic.Bool
	snapshotEveryDefault atomic.Uint64

	forkForks       atomic.Uint64
	forkCyclesSaved atomic.Uint64
	forkSnapBytes   atomic.Uint64
)

// SetForking toggles prefix-forked sweep execution (on by default; awgexp
// -no-fork disables it).
func SetForking(on bool) { forkOff.Store(!on) }

// SetSnapshotEvery sets the process-wide default for gpu.Config.
// SnapshotEvery: every run keeps a periodic snapshot ring for time-travel
// stall diagnosis. Non-zero values disable prefix forking implicitly (the
// ring changes the event stream, so such runs are not fork-eligible).
func SetSnapshotEvery(n uint64) { snapshotEveryDefault.Store(n) }

// ForkStats reports the fork planner's cumulative counters since process
// start (or the last ResetForkStats): members completed by forking, prefix
// cycles they did not re-simulate, and the bytes of the group snapshots.
func ForkStats() (forks, prefixCyclesSaved, snapshotBytes uint64) {
	return forkForks.Load(), forkCyclesSaved.Load(), forkSnapBytes.Load()
}

// ResetForkStats zeroes the fork counters.
func ResetForkStats() {
	forkForks.Store(0)
	forkCyclesSaved.Store(0)
	forkSnapBytes.Store(0)
}

// forkMember is one sweep config completed from the group snapshot.
type forkMember struct {
	idx int    // job index
	key string // run-cache fingerprint
	cfg Config // filled, with its fault schedule
}

// forkGroup is a set of jobs identical except for their fault schedules.
type forkGroup struct {
	members []forkMember
	reserve int         // engine seqs a cold arm consumes, group maximum
	diverge event.Cycle // earliest applicable fault across members
}

// unit is one work item of the pool: a lone job, or a fork group whose
// members share a machine and must run on one worker.
type unit struct {
	single int // job index when group == nil
	group  *forkGroup
}

// planUnits partitions jobs into fork groups and singles. Fork-eligible
// jobs are fully declarative (fingerprintable), carry a non-empty fault
// schedule, and run without a snapshot ring; they group by their
// fingerprint with the fault section stripped. Groups keep first-member
// order; everything else stays a single in job order.
func planUnits(jobs []Job) []unit {
	units := make([]unit, 0, len(jobs))
	if forkOff.Load() {
		for i := range jobs {
			units = append(units, unit{single: i})
		}
		return units
	}
	groups := map[string]*forkGroup{}
	for i := range jobs {
		cfg := jobs[i].Config
		key, ok := "", false
		if cfg.Inject == nil && cfg.Faults != nil && len(cfg.Faults.Events) > 0 && cfg.fill() == nil {
			key, ok = fingerprint(&cfg)
			ok = ok && cfg.GPU.SnapshotEvery == 0
		}
		if !ok {
			units = append(units, unit{single: i})
			continue
		}
		gk := forkGroupKey(&cfg)
		g := groups[gk]
		if g == nil {
			g = &forkGroup{}
			groups[gk] = g
			units = append(units, unit{single: -1, group: g})
		}
		g.members = append(g.members, forkMember{idx: i, key: key, cfg: cfg})
	}
	// Demote groups that cannot fork back into singles.
	out := units[:0]
	for _, u := range units {
		if u.group == nil || (len(u.group.members) >= 2 && u.group.plan()) {
			out = append(out, u)
			continue
		}
		for _, m := range u.group.members {
			out = append(out, unit{single: m.idx})
		}
	}
	return out
}

// forkGroupKey is the member's fingerprint with the fault section stripped:
// what the shared prefix simulates.
func forkGroupKey(c *Config) string {
	cc := *c
	cc.Faults = nil
	key, _ := fingerprint(&cc)
	return key
}

// plan computes the group's divergence cycle and sequence reservation,
// reporting false when forking cannot help.
func (g *forkGroup) plan() bool {
	pol, err := NewPolicy(g.members[0].cfg.Policy)
	if err != nil {
		return false
	}
	// With no applicable fault anywhere (capacity faults under a
	// monitor-less policy) the whole run is shared and members replay the
	// prefix's end state.
	g.diverge = event.Cycle(g.members[0].cfg.GPU.MaxCycles)
	for i := range g.members {
		m := &g.members[i]
		if n := fault.CountApplicable(pol, *m.cfg.Faults); n > g.reserve {
			g.reserve = n
		}
		if at, ok := fault.FirstApplicableAt(pol, *m.cfg.Faults); ok && at < g.diverge {
			g.diverge = at
		}
	}
	return g.diverge >= 2
}

// run executes the group on one worker: the shared prefix once, then each
// member forked from the snapshot. When the prefix stalls or exhausts its
// event budget before the divergence point, the group falls back to cold
// per-member runs.
func (g *forkGroup) run(jobs []Job, out []Outcome) {
	cold := func() {
		for _, mem := range g.members {
			out[mem.idx] = runJob(jobs[mem.idx])
		}
	}
	prefixCfg := g.members[0].cfg
	prefixCfg.Faults = nil
	s, err := newSession(prefixCfg, g.reserve)
	if err != nil {
		cold()
		return
	}
	m := s.m
	m.Prepare()
	limit := event.Cycle(prefixCfg.GPU.MaxCycles)
	stop := g.diverge - 1
	if stop > limit {
		stop = limit
	}
	m.RunTo(stop)
	if m.Deadlocked() || m.Engine().BudgetExhausted() {
		m.FinishRun() // discard the stalled prefix
		m.ReleaseBuffers()
		cold()
		return
	}
	snap := m.Snapshot()
	prefixCycles := uint64(m.Engine().Now())
	forkSnapBytes.Add(uint64(snap.Bytes()))

	ran := uint64(0)
	needFinish := true // the prefix (or an arm-failed restore) is unfinished
	for i := range g.members {
		mem := &g.members[i]
		key := jobs[mem.idx].Key
		entry, cached := claimFork(mem.key)
		if cached {
			out[mem.idx] = replayFork(key, entry)
			continue
		}
		m.Restore(snap)
		needFinish = true
		var res metrics.Result
		armed := true
		err := fault.ArmReserved(m, *mem.cfg.Faults, s.seqBase)
		if err != nil {
			armed = false // failed before simulating; entry is retractable
		} else {
			ran++
			m.RunTo(limit)
			res = m.FinishRun()
			needFinish = false
			totalCycles.Add(res.Cycles)
			totalRuns.Add(1)
			if !res.Deadlocked && !mem.cfg.SkipVerify && s.verify != nil {
				if verr := s.verify(m.Mem().Read); verr != nil {
					err = fmt.Errorf("sim: %s under %s completed but failed validation: %w",
						res.Benchmark, res.Policy, verr)
				}
			}
		}
		finishFork(entry, mem.key, res, err, armed)
		out[mem.idx] = Outcome{Key: key, Result: res, Err: err}
	}
	if ran > 0 {
		forkForks.Add(ran)
		forkCyclesSaved.Add(prefixCycles * (ran - 1))
	}
	if needFinish {
		m.FinishRun() // discard: every member replayed from the cache
	}
	// The group is done with its machine (and with snap, which dies here),
	// so its buffers can seed the next group's construction.
	m.ReleaseBuffers()
}

// claimFork claims key in the run cache, or waits out a prior claim.
// cached=true returns the finished entry; cached=false returns a fresh
// claimed entry the caller must finishFork. A nil entry means deduplication
// is off.
func claimFork(key string) (*cacheEntry, bool) {
	if dedupeOff.Load() {
		return nil, false
	}
	cacheMu.Lock()
	if e := runCache[key]; e != nil {
		cacheMu.Unlock()
		<-e.done
		return e, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	runCache[key] = e
	cacheMu.Unlock()
	return e, false
}

// replayFork converts a finished cache entry into an outcome, accounting
// the replayed run exactly like runDeduped.
func replayFork(key string, e *cacheEntry) Outcome {
	if !e.ran {
		return Outcome{Key: key, Err: e.err}
	}
	cacheHits.Add(1)
	totalCycles.Add(e.res.Cycles)
	totalRuns.Add(1)
	return Outcome{Key: key, Result: e.res, Err: e.err}
}

// finishFork publishes a member's result under its claimed entry. ran=false
// marks a failure before simulation (arm error) — mirrored from
// runDeduped's construction-error path, the entry is dropped so a later
// attempt retries.
func finishFork(e *cacheEntry, key string, res metrics.Result, err error, ran bool) {
	if e == nil {
		return
	}
	e.res, e.err, e.ran = res, err, ran
	close(e.done)
	if !ran {
		cacheMu.Lock()
		delete(runCache, key)
		cacheMu.Unlock()
	}
}
