package sim

import (
	"fmt"
	"runtime"
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/fault"
)

// allocGrowth names what a warmed-up run may still allocate, with the
// most objects each may add in one window of TestHotPathAllocations.
// Each structure is reused once it reaches its run's high-water mark, so
// it allocates only in a window that sets a new one. Each bound is the
// largest growth measured in any window of any case, rounded up to a
// power of two: 18 tasks, 7 parked-slice objects and 3 index objects. The
// runtime's own allocations (type-assertion caches, GC work) measured 1
// but vary from run to run, so they keep a bound of 2. Anything else the
// event path allocates is a regression.
var allocGrowth = []struct {
	what    string
	objects uint64
}{
	{"overflow heap and pooled tasks, one task per event past the peak of pending events", 32},
	{"WG parked-task slices, for a WG switched out mid-op", 8},
	{"Table 2 condition indexes, at a new (addr, want) pair such as each ticket of a ticket lock", 4},
	{"the Go runtime's own allocations", 2},
}

// TestHotPathAllocations checks DESIGN §7's allocation-free event path at
// run time: after a warm-up, each of a run's successive RunTo windows
// allocates no more than allocGrowth allows. It covers SPM_G, FAM_G,
// SLM_G and TB_LG under every policy, fitting and oversubscribed with a
// CU preempted (Baseline and Sleep deadlock oversubscribed, so they run
// fitting only), plus a 2x launch under a SyncMon squeeze and CP cadence
// jitter, which spills waiters through the Monitor Log and the CP.
func TestHotPathAllocations(t *testing.T) {
	const (
		warmup  = 1_500_000
		window  = 300_000
		windows = 3
	)
	var bound uint64
	for _, g := range allocGrowth {
		bound += g.objects
	}
	type gateCase struct {
		name string
		cfg  Config
	}
	var cases []gateCase
	for _, b := range []string{"SPM_G", "FAM_G", "SLM_G", "TB_LG"} {
		for _, p := range Policies() {
			for _, over := range []bool{false, true} {
				if over && (p == "Baseline" || p == "Sleep") {
					continue
				}
				cfg := quickConfig(b, p, over, 0)
				cfg.Params.Iters = 2000 // still running when the last window ends
				cases = append(cases, gateCase{fmt.Sprintf("%s/%s/oversubscribed=%t", b, p, over), cfg})
			}
		}
	}
	fc := quickConfig("SPM_G", "AWG", false, 0)
	fc.Params.NumWGs *= 2
	fc.Params.Iters = 2000
	for _, sched := range fault.Scripted(fc.GPU.NumCUs, 10_000) {
		if sched.Name == "jitter" {
			fc.Faults = &sched
		}
	}
	cases = append(cases, gateCase{"SPM_G/AWG/2x-launch/fault=jitter", fc})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var largest uint64
	for _, c := range cases {
		s, err := NewSession(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := s.Machine()
		m.Prepare()
		m.RunTo(warmup)
		for i := 1; i <= windows; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			m.RunTo(event.Cycle(warmup + i*window))
			runtime.ReadMemStats(&ms)
			n := ms.Mallocs - before
			if n > bound {
				t.Errorf("%s: window %d allocated %d objects, want <= %d (see allocGrowth)", c.name, i, n, bound)
			}
			largest = max(largest, n)
		}
		if m.Done() || m.Deadlocked() {
			t.Errorf("%s: the run ended before its last window, which then measured nothing", c.name)
		}
		s.Release()
	}
	t.Logf("largest window: %d objects, bound %d", largest, bound)
}
