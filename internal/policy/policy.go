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
// atomic until it returns the wanted value, deciding what the WG does in
// between.
package policy

import (
	"awgsim/internal/event"
	"awgsim/internal/gpu"
)

// Baseline busy-waits: the WG re-issues its atomic as fast as the loop
// overhead allows, holding its CU resources throughout. Matches the
// HeteroSync benchmarks as written. For hint.Backoff call sites (the
// SPMBO_* variants) it inserts software exponential backoff, burned as
// compute rather than slept, exactly like a backoff loop in kernel code.
type Baseline struct {
	m *gpu.Machine
	// BackoffBase/Max bound the software backoff for hinted call sites.
	BackoffBase, BackoffMax event.Cycle
}

// NewBaseline returns the busy-waiting baseline.
func NewBaseline() *Baseline {
	return &Baseline{BackoffBase: 64, BackoffMax: 8192}
}

func (b *Baseline) Name() string                { return "Baseline" }
func (b *Baseline) Attach(m *gpu.Machine) error { b.m = m; return nil }

func (b *Baseline) Wait(w *gpu.WG, v gpu.Var, op gpu.AtomicOp, a, b2, want int64, cmp gpu.Cmp, hint gpu.WaitHint, done func(int64)) {
	// The retry loop shares one attempt and one response continuation per
	// episode: a contended episode can spin thousands of times, and each
	// retry must not allocate.
	backoff := b.BackoffBase
	var attempt func()
	var onResp func(int64)
	onResp = func(ret int64) {
		if cmp.Test(ret, want) {
			done(ret)
			return
		}
		delay := b.m.PollOverhead()
		if hint.Backoff {
			delay += backoff + event.Cycle(b.m.Jitter(uint64(backoff/4+1)))
			if backoff*2 <= b.BackoffMax {
				backoff *= 2
			}
		}
		b.m.Engine().After(delay, attempt)
	}
	attempt = func() { b.m.IssueAtomic(w, v, op, a, b2, nil, onResp) }
	attempt()
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

func (s *Sleep) Wait(w *gpu.WG, v gpu.Var, op gpu.AtomicOp, a, b, want int64, cmp gpu.Cmp, _ gpu.WaitHint, done func(int64)) {
	backoff := s.Base
	if backoff > s.MaxBackoff {
		backoff = s.MaxBackoff
	}
	var attempt func()
	resume := func() {
		s.m.SetStalled(w, false)
		attempt()
	}
	var onResp func(int64)
	onResp = func(ret int64) {
		if cmp.Test(ret, want) {
			done(ret)
			return
		}
		s.m.Count.Stalls++
		d := backoff + event.Cycle(s.m.Jitter(uint64(backoff/8+1)))
		if backoff*2 <= s.MaxBackoff {
			backoff *= 2
		}
		// s_sleep parks the wavefront: issue slots free up while the
		// timer runs, though all other resources stay held.
		s.m.SetStalled(w, true)
		s.m.Engine().After(d, resume)
	}
	attempt = func() { s.m.IssueAtomic(w, v, op, a, b, nil, onResp) }
	attempt()
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

func (t *Timeout) Wait(w *gpu.WG, v gpu.Var, op gpu.AtomicOp, a, b, want int64, cmp gpu.Cmp, _ gpu.WaitHint, done func(int64)) {
	var attempt func()
	deliver := func() { t.m.Deliver(w, attempt) }
	resume := func() {
		t.m.SetStalled(w, false)
		attempt()
	}
	var onResp func(int64)
	onResp = func(ret int64) {
		if cmp.Test(ret, want) {
			done(ret)
			return
		}
		t.m.Count.Stalls++
		if t.m.Oversubscribed() {
			// Yield resources for the interval.
			t.m.SwitchOut(w)
			t.m.Engine().After(t.Interval, deliver)
		} else {
			t.m.SetStalled(w, true)
			t.m.Engine().After(t.Interval, resume)
		}
	}
	attempt = func() { t.m.IssueAtomic(w, v, op, a, b, nil, onResp) }
	attempt()
}
