// Package policy implements the paper's design space of cooperative WG
// scheduling architectures (Figure 6), all behind gpu.Policy:
//
//	Baseline   software busy-waiting; deadlocks when oversubscribed
//	Sleep      exponential backoff with the s_sleep instruction
//	Timeout    fixed-interval stall / context switch
//	MonRS-All  wait instructions + sporadic monitor, resume all
//	MonR-All   wait instructions + condition-checking monitor, resume all
//	MonNR-All  waiting atomics (race-free), resume all
//	MonNR-One  waiting atomics, resume one per met condition
//	AWG        waiting atomics + resume-count and stall-time prediction
//	MinResume  oracle resume selection (Figure 9's normalization base)
//
// A policy's only job is to complete Wait episodes: retry the program's
// atomic (the WG's Episode) until it returns the wanted value, deciding
// what the WG does in between, then end the episode with
// gpu.Machine.EndWait.
package policy

import (
	"awgsim/internal/event"
	"awgsim/internal/gpu"
)

// Baseline busy-waits: the WG re-issues its atomic as fast as the loop
// overhead allows, holding its CU resources throughout. Matches the
// HeteroSync benchmarks as written. For Backoff call sites (the SPMBO_*
// variants) it inserts software exponential backoff, burned as
// compute rather than slept, exactly like a backoff loop in kernel code.
type Baseline struct {
	m *gpu.Machine
	// BackoffBase/Max bound the software backoff for Backoff call sites.
	BackoffBase, BackoffMax event.Cycle
}

// NewBaseline returns the busy-waiting baseline.
func NewBaseline() *Baseline {
	return &Baseline{BackoffBase: 64, BackoffMax: 8192}
}

func (b *Baseline) Name() string                { return "Baseline" }
func (b *Baseline) Attach(m *gpu.Machine) error { b.m = m; return nil }

// NeverYields reports that a busy-waiting WG keeps its slot, for the
// machine's deadlock proof.
func (b *Baseline) NeverYields() bool { return true }

func (b *Baseline) Wait(w *gpu.WG) {
	s := retryState(b.m, w, b)
	s.backoff = b.BackoffBase
	s.attempt()
}

func (b *Baseline) retry(s *retryWait) {
	delay := b.m.PollOverhead()
	if s.w.Episode().Backoff {
		delay += s.backoff + event.Cycle(b.m.Jitter(uint64(s.backoff/4+1)))
		if s.backoff*2 <= b.BackoffMax {
			s.backoff *= 2
		}
	}
	s.after(delay, runRetryAttempt)
}

// Sleep models exponential backoff built on the s_sleep instruction: after
// each failed retry the WG sleeps for a doubling interval capped at
// MaxBackoff (the X in the paper's Sleep-Xk sweep). The WG keeps its
// hardware resources while sleeping, so Sleep cannot provide IFP when the
// GPU is oversubscribed — Figure 15 shows it deadlocking there.
type Sleep struct {
	m          *gpu.Machine
	Base       event.Cycle
	MaxBackoff event.Cycle
	name       string
}

// NewSleep builds a Sleep policy with the given maximum backoff interval.
func NewSleep(name string, maxBackoff event.Cycle) *Sleep {
	return &Sleep{Base: 512, MaxBackoff: maxBackoff, name: name}
}

func (s *Sleep) Name() string                { return s.name }
func (s *Sleep) Attach(m *gpu.Machine) error { s.m = m; return nil }

// NeverYields reports that a sleeping WG keeps its slot, for the
// machine's deadlock proof.
func (s *Sleep) NeverYields() bool { return true }

func (s *Sleep) Wait(w *gpu.WG) {
	st := retryState(s.m, w, s)
	st.backoff = min(s.Base, s.MaxBackoff)
	st.attempt()
}

func (s *Sleep) retry(st *retryWait) {
	s.m.Count.Stalls++
	d := st.backoff + event.Cycle(s.m.Jitter(uint64(st.backoff/8+1)))
	if st.backoff*2 <= s.MaxBackoff {
		st.backoff *= 2
	}
	// s_sleep parks the wavefront: issue slots free up while the
	// timer runs, though all other resources stay held.
	s.m.SetStalled(st.w, true)
	st.after(d, runRetryResume)
}

// Timeout is the paper's simplest IFP-providing architecture: a failed
// synchronization attempt parks the WG for a fixed interval — stalled on
// its CU when the machine is not oversubscribed, context switched out when
// it is — and retries when the interval expires. No monitor exists, so the
// interval is a blind guess; Figure 8 shows no single interval suits all
// primitives.
type Timeout struct {
	m        *gpu.Machine
	Interval event.Cycle
	name     string
}

// NewTimeout builds a Timeout policy with the given fixed interval (e.g.
// 10_000 for the paper's Timeout-10k).
func NewTimeout(name string, interval event.Cycle) *Timeout {
	return &Timeout{Interval: interval, name: name}
}

func (t *Timeout) Name() string                { return t.name }
func (t *Timeout) Attach(m *gpu.Machine) error { t.m = m; return nil }

func (t *Timeout) Wait(w *gpu.WG) {
	retryState(t.m, w, t).attempt()
}

func (t *Timeout) retry(s *retryWait) {
	t.m.Count.Stalls++
	if t.m.Oversubscribed() {
		// Yield resources for the interval.
		t.m.SwitchOut(s.w)
		s.after(t.Interval, runRetryDeliver)
	} else {
		t.m.SetStalled(s.w, true)
		s.after(t.Interval, runRetryResume)
	}
}

// retryWait is a WG's wait state under Baseline, Sleep and Timeout. A WG
// has at most one open wait episode, so each WG gets one retryWait, built
// on its first Wait and reset by every later one. A contended episode
// retries thousands of times, so its continuations are the engine's
// pooled tasks, and neither a retry nor a new episode allocates.
type retryWait struct {
	m       *gpu.Machine
	w       *gpu.WG
	pol     retryPolicy
	backoff event.Cycle // Baseline's Backoff and Sleep's backoff interval
}

// retryPolicy is a policy whose wait episodes are retryWait loops: an
// attempt that returns a value meeting the condition ends the episode, and
// retry schedules the next attempt after one that did not.
type retryPolicy interface {
	retry(s *retryWait)
}

// retryState returns w's wait state, building it on the WG's first Wait.
func retryState(m *gpu.Machine, w *gpu.WG, pol retryPolicy) *retryWait {
	if s, ok := w.PolicyData.(*retryWait); ok {
		return s
	}
	s := &retryWait{m: m, w: w, pol: pol}
	w.PolicyData = s
	return s
}

// attempt issues the episode's atomic once; runRetryResp takes the
// response.
func (s *retryWait) attempt() {
	op := s.w.Episode()
	s.m.IssueAtomic(s.w, op.Var, op.Op, op.A, 0, s.task(runRetryResp))
}

// task returns an unscheduled task calling fn with s in Env[0].
func (s *retryWait) task(fn event.TaskFunc) *event.Task {
	t := s.m.Engine().NewTask(fn)
	t.Env[0] = s
	return t
}

// after schedules fn, with s as its task's environment, d cycles from now.
func (s *retryWait) after(d event.Cycle, fn event.TaskFunc) {
	s.m.Engine().AfterTask(d, s.task(fn))
}

// runRetryResp ends the episode when the attempt returned a value meeting
// its condition, and has the policy retry when it did not.
func runRetryResp(t *event.Task) {
	s := t.Env[0].(*retryWait)
	ret := t.I[gpu.AtomicRet]
	if op := s.w.Episode(); op.Cmp.Test(ret, op.Want) {
		s.m.EndWait(s.w, ret)
		return
	}
	s.pol.retry(s)
}

func runRetryAttempt(t *event.Task) { t.Env[0].(*retryWait).attempt() }

// runRetryResume unstalls the WG, then attempts (Sleep, Timeout).
func runRetryResume(t *event.Task) {
	s := t.Env[0].(*retryWait)
	s.m.SetStalled(s.w, false)
	s.attempt()
}

// runRetryDeliver attempts once the WG is resident again (Timeout).
func runRetryDeliver(t *event.Task) {
	s := t.Env[0].(*retryWait)
	s.m.Deliver(s.w, s.task(runRetryAttempt))
}
