package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"awgsim/internal/metrics"
)

// Job names one simulation in a batch. Key is the caller's identifier for
// matching outcomes back to grid cells; it is carried through untouched.
type Job struct {
	Key    string
	Config Config
}

// Outcome is one Job's result. Outcomes are returned in Job order, so
// callers may also index instead of matching keys.
type Outcome struct {
	Key             string
	Result          metrics.Result
	InjectedLatency uint64
	Err             error
}

// RunAll executes every job, fanning them out over min(GOMAXPROCS,
// len(jobs)) workers. Each job constructs and runs its own machine with its
// own single-goroutine event engine, so per-job results are bit-identical
// to the serial path regardless of scheduling; only completion order (and
// wall-clock) varies, and the returned slice restores Job order.
//
// A job whose construction or validation fails carries its error in
// Outcome.Err; other jobs are unaffected.
func RunAll(jobs []Job) []Outcome {
	return RunAllWorkers(jobs, 0)
}

// RunAllWorkers is RunAll with an explicit worker count; n <= 0 selects
// GOMAXPROCS. n == 1 reproduces the serial path exactly (same order, same
// goroutine). Every job runs cold through runJob, so declarative configs
// share the run cache (runcache.go) with every other caller of Run.
func RunAllWorkers(jobs []Job, n int) []Outcome {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(jobs) {
		n = len(jobs)
	}
	out := make([]Outcome, len(jobs))
	if n <= 1 {
		for i := range jobs {
			out[i] = runJob(jobs[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func runJob(j Job) Outcome {
	o := Outcome{Key: j.Key}
	if j.Config.Inject == nil {
		// No injected kernel means no InjectedLatency to extract, so the
		// job can go through Run's deduplication cache.
		o.Result, o.Err = Run(j.Config)
		return o
	}
	s, err := NewSession(j.Config)
	if err != nil {
		o.Err = err
		return o
	}
	o.Result, o.Err = s.Run()
	o.InjectedLatency = s.InjectedLatency()
	s.Release()
	return o
}
