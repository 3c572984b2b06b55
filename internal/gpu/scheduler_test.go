package gpu

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestReadyQueueMatchesFullSort drives the ready queue through random
// enqueue, requeue and head-dispatch steps over WGs of kernels with mixed
// priorities. After every step the queue must equal a reference that
// appends on every enqueue and re-sorts the whole queue, appends on every
// requeue without sorting, and drops the head on every dispatch.
func TestReadyQueueMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := newTestMachine(t, testConfig(), stuckKernel(1, 0x7000), nil)
		s := m.sched
		kernels := []*kernelRun{{priority: 0}, {priority: 2}, {priority: -1}, {priority: 2}}
		wgs := make([]*WG, 16)
		for i := range wgs {
			wgs[i] = &WG{id: WGID(i), kr: kernels[i%len(kernels)]}
		}
		queued := map[*WG]bool{}
		var ref []*WG
		fullSort := func(q []*WG) {
			slices.SortFunc(q, func(a, b *WG) int {
				return cmp.Or(cmp.Compare(b.kr.priority, a.kr.priority), cmp.Compare(a.queueSeq, b.queueSeq))
			})
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			w := wgs[rng.Intn(len(wgs))]
			switch op := rng.Intn(3); {
			case op == 2 && len(ref) > 0:
				delete(queued, ref[0])
				ref = ref[1:]
				s.popReady()
			case queued[w]:
				continue
			case op == 1 && w.queueSeq != 0:
				// A revoked restore keeps the sequence it last queued with.
				queued[w] = true
				ref = append(ref, w)
				s.requeueReady(w)
			default:
				queued[w] = true
				s.enqueueReady(w)
				ref = append(ref, w)
				fullSort(ref)
			}
			if !slices.Equal(s.readyQueue, ref) {
				t.Fatalf("seed %d step %d: ready queue %v, want %v", seed, step, ids(s.readyQueue), ids(ref))
			}
		}
	}
}

func ids(q []*WG) []WGID {
	out := make([]WGID, len(q))
	for i, w := range q {
		out[i] = w.id
	}
	return out
}
