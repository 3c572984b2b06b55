package sim

import (
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	"awgsim/internal/metrics"
)

// Run deduplication: experiment sweeps share many identical cells (every
// policy column repeats the same baseline, every sweep repeats its
// endpoints), and a simulation is a pure function of its Config — the
// engine is single-goroutine deterministic, so two equal Configs produce
// bit-identical Results. The session layer therefore fingerprints each
// fully-declarative Config, simulates each unique fingerprint once per
// process, and replays the cached Result for duplicates.
//
// A Config is only fingerprintable when it is closed under its own data:
// any closure or pointer the caller can reach back through (explicit
// Kernel/Init/Verify, a mid-run Injection, an attached Tracer) makes runs
// distinguishable in ways the fingerprint cannot see, so those run fresh.
// Faults schedules are pure data and fingerprint fine.
//
// Replays still account one run's cycles in Totals(), so the simulated-work
// ledger (and the golden record's sim_cycles/sim_runs) is identical with
// and without deduplication; only wall-clock changes. A caller that needs
// a genuine re-simulation builds a Session (NewSession) or calls
// ResetCache first.

type cacheEntry struct {
	key  runKey        // the full key; the map indexes its hash
	done chan struct{} // closed when res/err/ran are final
	res  metrics.Result
	err  error
	ran  bool // the session was constructed and executed
	// completed mirrors "done is closed" for readers holding cacheMu (the
	// evictor must not select still-running entries, and a channel cannot
	// be polled under a mutex without racing the closer).
	completed bool
}

// cacheQueueEntry records insertion order for FIFO eviction. A queue slot
// can go stale — its entry evicted or deleted on a construction error, or
// its key re-inserted with a fresh entry — so the evictor checks the map
// still holds this exact entry before acting on it.
type cacheQueueEntry struct {
	key uint64 // keyHash of e.key
	e   *cacheEntry
}

// defaultRunCacheCap bounds the resident cache. Sweeps hold a few thousand
// unique cells; long-lived processes (litmus hunts, fuzzers) churn through
// unbounded fingerprints and previously grew the map without limit.
// Eviction never changes results or the Totals() ledger — an evicted
// duplicate simply re-simulates, bit-identically, on its next arrival.
const defaultRunCacheCap = 8192

var (
	cacheMu    sync.Mutex
	runCache   = map[uint64]*cacheEntry{} // indexed by keyHash
	cacheQueue []cacheQueueEntry          // insertion order, guarded by cacheMu
	cacheCap   = defaultRunCacheCap       // <= 0 removes the bound; guarded by cacheMu
	keySeed    = maphash.MakeSeed()

	cacheHits atomic.Uint64

	// testHookConstruct, when set (tests only), runs after a first arrival
	// claims its fingerprint and before session construction — the window
	// where ResetCache can swap the map out from under it.
	testHookConstruct func()
)

// CacheHits reports how many runs were satisfied by replaying a cached
// duplicate since process start (or the last ResetCache).
func CacheHits() uint64 { return cacheHits.Load() }

// ResetCache drops every cached run and zeroes the hit counter.
func ResetCache() {
	cacheMu.Lock()
	runCache = map[uint64]*cacheEntry{}
	cacheQueue = nil
	cacheMu.Unlock()
	cacheHits.Store(0)
}

// evictLocked trims the cache to cacheCap, oldest insertion first,
// consuming the queue from its head in place. Stale slots are dropped on
// the way. Entries still simulating are never evicted — waiters are parked
// on their done channel and the singleflight contract needs the map entry
// stable — so they stay queued, in order, and the cache can transiently
// exceed the cap while everything resident is in flight. Caller holds
// cacheMu.
func evictLocked() {
	if cacheCap <= 0 || len(runCache) <= cacheCap {
		return
	}
	over := len(runCache) - cacheCap
	i := 0
	for ; i < len(cacheQueue) && over > 0; i++ {
		if qe := cacheQueue[i]; runCache[qe.key] == qe.e && qe.e.completed {
			delete(runCache, qe.key)
			over--
		}
	}
	// Every resident entry left in the scanned prefix is in flight: slide
	// those up against the unscanned rest, keeping their order, and clear
	// each vacated slot so the backing array pins no evicted entry. The
	// queue then starts at the first survivor; appends reuse the array's
	// spare capacity, so steady-state inserts do not allocate.
	w := i
	for j := i - 1; j >= 0; j-- {
		qe := cacheQueue[j]
		cacheQueue[j] = cacheQueueEntry{}
		if runCache[qe.key] == qe.e {
			w--
			cacheQueue[w] = qe
		}
	}
	cacheQueue = cacheQueue[w:]
}

// runKey is the run-cache key: every value field of a declarative Config,
// with the machine, memory and launch configs held whole. A fault schedule
// holds a slice, so a present one is folded into faults as a string.
type runKey struct {
	benchmark, policy string
	gpu               gpu.Config
	mem               mem.Config
	params            kernels.Params
	oversubscribe     bool
	preemptAt         event.Cycle
	cycleBudget       uint64
	skipVerify        bool
	seed              uint64
	faults            string // "" when the Config has no schedule
}

// fingerprint builds a declarative Config's run-cache key, reporting
// ok=false for Configs carrying closures or pointers the key cannot
// capture. fill() has already run, so defaulted and explicit Configs that
// denote the same machine get equal keys.
func fingerprint(c *Config) (runKey, bool) {
	if c.Kernel != nil || c.Init != nil || c.Verify != nil || c.Inject != nil || c.Tracer != nil {
		return runKey{}, false
	}
	k := runKey{
		benchmark: c.Benchmark, policy: c.Policy,
		gpu: c.GPU, mem: c.Mem, params: c.Params,
		oversubscribe: c.Oversubscribe, preemptAt: c.PreemptAt,
		cycleBudget: c.CycleBudget, skipVerify: c.SkipVerify, seed: c.Seed,
	}
	if f := c.Faults; f != nil {
		// Seed never changes a run, but it names the schedule in
		// construction errors, which duplicates share. The quoted name
		// leads, so a present schedule never encodes as "".
		b := strconv.AppendQuote(nil, f.Name)
		b = strconv.AppendUint(append(b, '|'), f.Seed, 10)
		for _, e := range f.Events {
			for _, v := range [...]int64{int64(e.At), int64(e.Op), int64(e.CU),
				int64(e.Ways), int64(e.WaitList), int64(e.Seed), int64(e.MaxSkew)} {
				b = strconv.AppendInt(append(b, ','), v, 10)
			}
			b = append(b, ';')
		}
		k.faults = string(b)
	}
	return k, true
}

// keyHash indexes the cache by a runKey's hash. A runKey is several hundred
// bytes, and a Go map stores a key over 128 bytes out of line, allocating
// on every insert; a hash index keeps inserts allocation-free. Each entry
// holds its full key, so a lookup that lands on another key's entry sees
// the mismatch.
func keyHash(k runKey) uint64 { return maphash.Comparable(keySeed, k) }

// runDeduped executes cfg through the run cache: the first arrival of a
// fingerprint simulates (concurrent duplicates wait on it — singleflight),
// later arrivals replay the cached Result and account a run in Totals().
func runDeduped(cfg Config) (metrics.Result, error) {
	if err := cfg.fill(); err != nil {
		return metrics.Result{}, err
	}
	key, ok := fingerprint(&cfg)
	if !ok {
		return runFresh(cfg)
	}
	h := keyHash(key)
	cacheMu.Lock()
	e := runCache[h]
	if e != nil {
		cacheMu.Unlock()
		if e.key != key {
			// Another key under the same 64-bit hash: simulate without
			// the cache rather than replay a different run.
			return runFresh(cfg)
		}
		<-e.done
		if e.ran {
			cacheHits.Add(1)
			totalCycles.Add(e.res.Cycles)
			totalRuns.Add(1)
			return e.res, e.err
		}
		// The first arrival failed before running (construction error):
		// nothing was cached, so report the same failure afresh.
		return metrics.Result{}, e.err
	}
	e = &cacheEntry{key: key, done: make(chan struct{})}
	runCache[h] = e
	cacheQueue = append(cacheQueue, cacheQueueEntry{h, e})
	evictLocked()
	cacheMu.Unlock()

	if hook := testHookConstruct; hook != nil {
		hook()
	}
	s, err := NewSession(cfg)
	if err != nil {
		e.err = err
		close(e.done)
		cacheMu.Lock()
		// Only drop our own entry: ResetCache may have swapped the map
		// mid-run and a fresh first arrival can own this key by now.
		if runCache[h] == e {
			delete(runCache, h)
		}
		cacheMu.Unlock()
		return metrics.Result{}, err
	}
	e.res, e.err = s.Run()
	s.Release()
	e.ran = true
	cacheMu.Lock()
	e.completed = true
	cacheMu.Unlock()
	close(e.done)
	return e.res, e.err
}

func runFresh(cfg Config) (metrics.Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	res, rerr := s.Run()
	s.Release()
	return res, rerr
}
