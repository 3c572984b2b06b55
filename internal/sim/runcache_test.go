package sim

import (
	"fmt"
	"reflect"
	"testing"

	"awgsim/internal/fault"
	"awgsim/internal/mem"
)

// TestFingerprintCoversConfig perturbs every value leaf of a filled,
// fingerprintable Config — through GPU, Mem, Params and the Faults schedule
// with its events — and requires each perturbation to change the run-cache
// key, so no field a run depends on can drop out of fingerprint(). A nil
// func or pointer field is behaviour the encoding cannot capture: setting
// it must make the Config non-fingerprintable. A field of any other kind
// fails the test, so a new field forces a decision in fingerprint().
func TestFingerprintCoversConfig(t *testing.T) {
	cfg := quickConfig("SPM_G", "AWG", true, 5)
	cfg.CycleBudget = 1_000_000
	cfg.Faults = &fault.Schedule{Name: "cover", Seed: 3, Events: []fault.Event{
		{At: 1_000, Op: fault.CULoss, CU: 1, Ways: 2, WaitList: 3, Seed: 4, MaxSkew: 5},
		{At: 2_000, Op: fault.JitterCP, CU: 2, Ways: 3, WaitList: 4, Seed: 5, MaxSkew: 6},
	}}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	base, ok := fingerprint(&cfg)
	if !ok {
		t.Fatal("declarative Config is not fingerprintable")
	}

	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
			return
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, v.Elem())
				return
			}
		}
		if !v.CanSet() {
			t.Errorf("%s: unexported field; the walk cannot perturb it", path)
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		defer v.Set(old)
		behaviour := v.Kind() == reflect.Pointer || v.Kind() == reflect.Func
		switch v.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Func:
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { panic("not called") }))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Errorf("%s: field of kind %s; decide how fingerprint() covers it and teach this walk", path, v.Kind())
			return
		}
		switch key, ok := fingerprint(&cfg); {
		case behaviour && ok:
			t.Errorf("%s set: Config still fingerprintable; fingerprint() must reject it", path)
		case !behaviour && key == base:
			t.Errorf("%s perturbed: run-cache fingerprint unchanged; fold it into fingerprint()", path)
		}
	}
	walk("Config", reflect.ValueOf(&cfg).Elem())
	if key, _ := fingerprint(&cfg); key != base {
		t.Fatal("walk left the Config perturbed")
	}
}

// setCacheCap bounds the run cache for one test.
func setCacheCap(t *testing.T, n int) {
	t.Helper()
	cacheMu.Lock()
	cacheCap = n
	evictLocked()
	cacheMu.Unlock()
	t.Cleanup(func() {
		cacheMu.Lock()
		cacheCap = defaultRunCacheCap
		cacheMu.Unlock()
	})
}

// TestDedupeReplaysIdenticalResult: a duplicate Config replays the cached
// Result bit for bit, counts a cache hit, and still accounts a run in
// Totals() — and the replay equals what a genuine re-simulation produces.
// The config carries a fault schedule, so the Faults section of the
// fingerprint is exercised too.
func TestDedupeReplaysIdenticalResult(t *testing.T) {
	ResetCache()
	ResetTotals()
	cfg := quickConfig("SPM_G", "AWG", false, 3)
	sched := fault.Scripted(cfg.GPU.NumCUs, 10_000)[0]
	cfg.Faults = &sched
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h0 := CacheHits()
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0+1 {
		t.Fatalf("cache hits %d after duplicate run, want %d", CacheHits(), h0+1)
	}
	if r1 != r2 {
		t.Fatalf("replayed result diverged:\n  first:  %+v\n  replay: %+v", r1, r2)
	}
	if cycles, runs := Totals(); runs != 2 || cycles != 2*r1.Cycles {
		t.Fatalf("Totals() = %d cycles, %d runs; replay must account a run (want %d, 2)",
			cycles, runs, 2*r1.Cycles)
	}
	r3, err := runFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatalf("fresh simulation diverged from cached result:\n  cached: %+v\n  fresh:  %+v", r1, r3)
	}
}

// TestDedupeDistinguishesConfigs: any field difference — here the jitter
// seed — is a different fingerprint, so no replay happens.
func TestDedupeDistinguishesConfigs(t *testing.T) {
	ResetCache()
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 11)); err != nil {
		t.Fatal(err)
	}
	h0 := CacheHits()
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 12)); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0 {
		t.Fatalf("different seeds shared a cache entry (%d hits, want %d)", CacheHits(), h0)
	}
}

// TestDedupeSkipsClosures: a Config carrying any closure field is not
// fingerprintable and always simulates fresh.
func TestDedupeSkipsClosures(t *testing.T) {
	ResetCache()
	cfg := quickConfig("SPM_G", "AWG", false, 5)
	cfg.Init = func(write func(mem.Addr, int64)) {}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	h0 := CacheHits()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0 {
		t.Fatalf("closure-carrying config was deduplicated (%d hits, want %d)", CacheHits(), h0)
	}
}

// TestRunCacheBounded: the cache holds at most the configured cap, FIFO —
// the newest entries replay, the oldest re-simulate after eviction.
func TestRunCacheBounded(t *testing.T) {
	ResetCache()
	setCacheCap(t, 4)
	for seed := uint64(101); seed <= 108; seed++ {
		if _, err := Run(quickConfig("SPM_G", "AWG", false, seed)); err != nil {
			t.Fatal(err)
		}
	}
	cacheMu.Lock()
	n, q := len(runCache), len(cacheQueue)
	cacheMu.Unlock()
	if n != 4 || q != 4 {
		t.Fatalf("cache holds %d entries (queue %d) after 8 runs at cap 4", n, q)
	}
	h0 := CacheHits()
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 108)); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0+1 {
		t.Fatalf("newest entry did not replay (%d hits, want %d)", CacheHits(), h0+1)
	}
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 101)); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0+1 {
		t.Fatalf("oldest entry replayed after eviction (%d hits, want %d)", CacheHits(), h0+1)
	}
}

// TestEvictionSkipsInFlight: an entry still simulating is never evicted —
// waiters are parked on its done channel and the singleflight contract
// needs the map slot stable — so eviction passes over it to the next
// completed entry.
func TestEvictionSkipsInFlight(t *testing.T) {
	ResetCache()
	defer ResetCache()
	setCacheCap(t, 2)
	cacheMu.Lock()
	inflight := &cacheEntry{done: make(chan struct{})}
	runCache["k0"] = inflight
	cacheQueue = append(cacheQueue, cacheQueueEntry{"k0", inflight})
	for i := 1; i <= 3; i++ {
		e := &cacheEntry{done: make(chan struct{}), completed: true}
		k := fmt.Sprintf("k%d", i)
		runCache[k] = e
		cacheQueue = append(cacheQueue, cacheQueueEntry{k, e})
	}
	evictLocked()
	defer cacheMu.Unlock()
	if runCache["k0"] != inflight {
		t.Fatal("in-flight entry evicted")
	}
	if len(runCache) != 2 || runCache["k3"] == nil {
		t.Fatalf("want in-flight k0 + newest k3 resident, have %d entries", len(runCache))
	}
	if len(cacheQueue) != 2 {
		t.Fatalf("queue holds %d slots, want 2", len(cacheQueue))
	}
}

// TestEvictionSteadyStateDoesNotAllocate: once the cache is full, each
// insert evicts the oldest entry by trimming the queue's head in place —
// no per-insert queue rebuild — and the FIFO order survives.
func TestEvictionSteadyStateDoesNotAllocate(t *testing.T) {
	ResetCache()
	defer ResetCache()
	const capN = 64
	setCacheCap(t, capN)
	keys := make([]string, 4*capN)
	entries := make([]*cacheEntry, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		entries[i] = &cacheEntry{completed: true}
	}
	next := 0
	insert := func() {
		k, e := keys[next%len(keys)], entries[next%len(keys)]
		next++
		cacheMu.Lock()
		runCache[k] = e
		cacheQueue = append(cacheQueue, cacheQueueEntry{k, e})
		evictLocked()
		cacheMu.Unlock()
	}
	for range 3 * capN {
		insert()
	}
	if allocs := testing.AllocsPerRun(10*capN, insert); allocs >= 1 {
		t.Fatalf("%.2f allocations per steady-state insert, want < 1", allocs)
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if len(runCache) != capN || len(cacheQueue) != capN {
		t.Fatalf("cache holds %d entries (queue %d), want %d", len(runCache), len(cacheQueue), capN)
	}
	// The survivors are exactly the newest capN insertions, oldest first.
	for i, qe := range cacheQueue {
		if want := keys[(next-capN+i)%len(keys)]; qe.key != want || runCache[want] != qe.e {
			t.Fatalf("queue slot %d holds %q, want %q", i, qe.key, want)
		}
	}
}

// TestResetCacheRacesConstructionError pins the first-arrival error
// cleanup against a mid-run ResetCache: the map is swapped while the
// arrival is constructing, a fresh arrival claims the same fingerprint in
// the new map, and the old arrival's failure cleanup must not delete the
// new owner's entry.
func TestResetCacheRacesConstructionError(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := quickConfig("no-such-bench", "AWG", false, 1)
	keyCfg := cfg
	if err := keyCfg.fill(); err != nil {
		t.Fatal(err)
	}
	key, ok := fingerprint(&keyCfg)
	if !ok {
		t.Fatal("config not fingerprintable")
	}

	// One proceed channel per arrival: with a shared one, whichever parked
	// arrival reaches its receive first would be released, not necessarily
	// arrival 1.
	ready := make(chan int)
	proceed := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	arrivals := 0
	testHookConstruct = func() {
		arrivals++
		n := arrivals
		ready <- n
		<-proceed[n-1]
	}
	defer func() { testHookConstruct = nil }()

	errs := make(chan error, 2)
	go func() { _, err := Run(cfg); errs <- err }()
	<-ready      // arrival 1 holds the key, construction not started
	ResetCache() // the map swap arrival 1 cannot see
	go func() { _, err := Run(cfg); errs <- err }()
	<-ready // arrival 2 owns the key in the new map, parked mid-construction

	proceed[0] <- struct{}{} // arrival 1: construction fails, cleanup runs
	if err := <-errs; err == nil {
		t.Fatal("unknown benchmark built")
	}
	cacheMu.Lock()
	survived := runCache[key] != nil
	cacheMu.Unlock()
	if !survived {
		t.Fatal("arrival 1's cleanup deleted arrival 2's in-flight entry")
	}

	proceed[1] <- struct{}{} // arrival 2 finishes (and removes its own entry)
	if err := <-errs; err == nil {
		t.Fatal("unknown benchmark built")
	}
	cacheMu.Lock()
	gone := runCache[key] == nil
	cacheMu.Unlock()
	if !gone {
		t.Fatal("construction-error entry left resident")
	}
}

// TestDedupeSingleflight: concurrent duplicates collapse onto one
// simulation — one miss, the rest hits, every outcome identical.
func TestDedupeSingleflight(t *testing.T) {
	ResetCache()
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("dup%d", i), Config: quickConfig("SPM_G", "Timeout", false, 21)}
	}
	outs := RunAllWorkers(jobs, 4)
	if CacheHits() != n-1 {
		t.Fatalf("cache hits %d for %d concurrent duplicates, want %d", CacheHits(), n, n-1)
	}
	for i := 1; i < n; i++ {
		if outs[i].Err != nil {
			t.Fatalf("%s: %v", outs[i].Key, outs[i].Err)
		}
		if outs[i].Result != outs[0].Result {
			t.Fatalf("duplicate %d diverged from first outcome", i)
		}
	}
}
