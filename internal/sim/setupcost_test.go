package sim

import (
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
)

// TestSessionSetupAllocs bounds what building and releasing one session
// allocates for a 2-WG litmus pattern on the one-CU litmus machine, under
// each policy of awgbench's litmus-hunt. Set-up should allocate for what
// a run touches, not for the paper's full hardware geometry: building the
// AWG predictor's 512 filters, the Monitor Log ring and the condition
// slabs up front cost over 1,600 objects per AWG session; eager hash
// indexes and SyncMon set arrays, a split-based pattern decode and an
// unsized IR builder cost another 24 to 38, a struct per WG, a copy of
// the WG list and a kernel record apart from the machine 4 more, and the
// closures bound at set-up for the dispatcher's kick and the CP's
// firmware loops 1 to 5 more. Each bound is the measured count (33, 39
// and 43) plus about 20%.
func TestSessionSetupAllocs(t *testing.T) {
	g := gpu.DefaultConfig()
	g.NumCUs, g.MaxWGsPerCU, g.ProgressWindow = 1, 2, 60_000
	for _, tc := range []struct {
		policy string
		max    float64
	}{
		{"Baseline", 40},
		{"Sleep", 40},
		{"Timeout", 40},
		{"MonNR-All", 47},
		{"MonNR-One", 47},
		{"AWG", 52},
	} {
		cfg := Config{
			Benchmark:   "litmus:1:e0.1;s0.1",
			Policy:      tc.policy,
			GPU:         g,
			Params:      kernels.Params{NumWGs: 2, Groups: 1, WIsPerWG: 1, Iters: 1},
			CycleBudget: 2_000_000,
		}
		allocs := testing.AllocsPerRun(20, func() {
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Release()
		})
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations per NewSession+Release, want <= %.0f", tc.policy, allocs, tc.max)
		}
		t.Logf("%s: %.0f allocations per NewSession+Release (bound %.0f)", tc.policy, allocs, tc.max)
	}
}
