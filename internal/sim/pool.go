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
// goroutine). Every job simulates, duplicates included.
func RunAllWorkers(jobs []Job, n int) []Outcome {
	out := make([]Outcome, len(jobs))
	ForEach(len(jobs), n, func(i int) { out[i] = runJob(jobs[i]) })
	return out
}

// ForEach calls f(i) for every i in [0, count) over min(workers, count)
// goroutines, each claiming the next unclaimed index until none is left;
// workers <= 0 selects GOMAXPROCS. With one worker it calls f in index
// order on the caller's goroutine. f must be safe to call concurrently
// for distinct indices.
func ForEach(count, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runJob builds, runs and releases one job's session.
func runJob(j Job) Outcome {
	o := Outcome{Key: j.Key}
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
