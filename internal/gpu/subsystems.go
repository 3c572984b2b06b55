package gpu

import "awgsim/internal/event"

// This file defines the seams between the Machine and its collaborators.
// The Machine owns the event engine, the memory system, the WG interpreter
// frames and their device-op issue; everything else is delegated to three
// narrowly-scoped subsystems, each behind an interface so tests can
// substitute instrumented implementations:
//
//	dispatcher     — CU resource pools, the pending/ready WG queues, WG
//	                 placement, priority eviction (scheduler.go)
//	atomicPipeline — the L2/CU atomic path, monitor-arm traffic, atomic
//	                 observers, Table 2 characterization (atomics.go)
//	contextEngine  — the WG context save/restore state machine and the
//	                 CU-level preemption of the oversubscribed experiment
//	                 (context.go)
//
// The subsystems collaborate only through these interfaces (wired up by
// NewMachine), so each one can be read, tested, and replaced on its own:
// the dispatcher asks the context engine to restore ready WGs, the context
// engine hands freed resources back to the dispatcher, and device-op issue
// feeds the atomic pipeline.

// dispatcher places work-groups onto compute units. It owns the CU resource
// pools, the two scheduling queues (never-started pending WGs and
// switched-out ready WGs) and the dispatcher serialization slot.
type dispatcher interface {
	// enqueuePending inserts never-started WGs in (priority, arrival) order.
	enqueuePending(wgs []*WG)
	// enqueueReady promotes a switched-out WG whose condition is met,
	// stamping a fresh arrival sequence (see sortWGQueue for why).
	enqueueReady(w *WG)
	// requeueReady re-appends a WG whose context restore was revoked
	// mid-flight (its CU was preempted away); the WG keeps its sequence.
	requeueReady(w *WG)
	// kick schedules one dispatcher pass, coalescing repeated requests
	// within an event.
	kick()
	// evictForRoom force-preempts resident lower-priority WGs until kr's
	// WGs all fit.
	evictForRoom(kr *kernelRun)
	// forceEvict context switches one resident WG out on behalf of the
	// kernel-level scheduler.
	forceEvict(w *WG)
	// oversubscribed reports whether WGs are waiting for resources.
	oversubscribed() bool
	// queueLens reports the pending/ready queue occupancies (diagnostics).
	queueLens() (pending, ready int)
	// cu resolves a CU by id.
	cu(id CUID) *computeUnit
	// disableCU/enableCU flip a CU's availability, reporting whether the
	// call changed anything.
	disableCU(id CUID) bool
	enableCU(id CUID) bool
	// enabledCUs counts CUs currently available for placement.
	enabledCUs() int
	// dispatchSlot serializes dispatcher actions, returning the cycle at
	// which the next action completes.
	dispatchSlot() event.Cycle
	// issueFactor models SIMD issue-slot sharing on w's CU.
	issueFactor(w *WG) event.Cycle
}

// atomicPipeline carries every atomic and monitor-arm operation to the
// variable's synchronization point (the L2 bank or the CU-local unit),
// applies value effects at bank-service time, and notifies subscribed
// observers (the SyncMon implementations). It also keeps the Table 2
// synchronization characterization.
type atomicPipeline interface {
	// subscribe registers f for every atomic's bank-service instant.
	subscribe(f AtomicObserver)
	// issue performs an atomic for w (nil for agent-issued operations).
	issue(w *WG, v Var, op AtomicOp, a, b int64, atBank func(old, new int64), resp func(ret int64))
	// issueTask performs an atomic whose response continuation is a pooled
	// task, fired with the returned value in resp.I[AtomicRet].
	issueTask(w *WG, v Var, op AtomicOp, a, b int64, resp *event.Task)
	// arm sends a wait-instruction arm for w to the SyncMon at the L2.
	arm(w *WG, v Var, atBank func(), resp func())
	// charBegin/charMet bracket one wait episode for the Table 2 stats.
	charBegin(w *WG, v Var, want int64)
	charMet(w *WG, v Var, want int64)
	// characterization aggregates the Table 2 columns at end of run.
	characterization() charSummary
}

// contextEngine runs the WG context save/restore state machine the paper's
// Command Processor firmware implements (stalled → switching-out → waiting
// → ready → switching-in), plus the CU-level preemption of the dynamic
// resource-loss experiment.
type contextEngine interface {
	// saveOut runs the context-save sequence for a resident WG: CP firmware
	// latency, context-store memory traffic, then resource release. When
	// requeueReady is set the WG queues ready as soon as the save lands (it
	// was preempted while executing, so it wants its resources back).
	saveOut(w *WG, requeueReady bool)
	// switchOut context switches a waiting resident WG out on the policy's
	// request.
	switchOut(w *WG)
	// switchIn restores a ready WG onto cu.
	switchIn(w *WG, cu *computeUnit)
	// markReady promotes a switched-out WG to the ready queue.
	markReady(w *WG)
	// preemptCU disables a CU and force-preempts its resident WGs.
	preemptCU(id CUID)
	// restoreCU re-enables a previously preempted CU.
	restoreCU(id CUID)
	// deliver runs f once w is resident.
	deliver(w *WG, f func())
}
