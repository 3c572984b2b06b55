package event

import "testing"

// runByteWorkload interprets data as an op stream against c and returns the
// firing trace. The encoding is deliberately dense so the fuzzer can reach
// every calendar region (near/far/heap, same-cycle ties, pours, budget
// stops) from short inputs.
func runByteWorkload(c calendar, data []byte) []firing {
	var trace []firing
	var nextID uint64
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	schedule := func(d Cycle, stop bool) {
		id := nextID
		nextID++
		crng := (id + 1) * 0x9e3779b97f4a7c15
		c.After(d, func() {
			trace = append(trace, firing{c.Now(), id})
			if stop {
				c.Stop()
			}
			if splitmix(&crng)%4 == 0 {
				cid := nextID
				nextID++
				cd := randDelta(&crng)
				c.After(cd, func() { trace = append(trace, firing{c.Now(), cid}) })
			}
		})
	}
	for pos < len(data) {
		op := next()
		switch {
		case op < 0x40: // near-wheel delay
			schedule(Cycle(next()), false)
		case op < 0x70: // far-wheel delay
			schedule(nearSize+Cycle(next())*((farSpan-nearSize)/256)+Cycle(next()), false)
		case op < 0x90: // overflow-heap delay
			schedule(farSpan+nearSize+Cycle(next())*nearSize, false)
		case op < 0xa0: // same-cycle burst
			n := int(next())%8 + 2
			for i := 0; i < n; i++ {
				schedule(Cycle(op&3), false)
			}
		case op < 0xc0: // bounded run segment
			c.RunUntil(c.Now() + Cycle(next())*Cycle(next()))
			trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
		case op < 0xd0:
			step(c)
		case op < 0xe0: // budget-limited segment
			c.SetEventBudget(c.Executed() + uint64(next()) + 1)
			c.RunUntil(c.Now() + 100_000)
			c.SetEventBudget(0)
			trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
		case op < 0xf0: // event that calls Stop mid-run
			schedule(Cycle(next()), true)
			c.RunUntil(c.Now() + 10_000)
		default:
			trace = append(trace, firing{c.nextAt(), ^uint64(0)})
		}
	}
	c.Run()
	trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
	return trace
}

// FuzzCalendar cross-checks the wheel+heap calendar against the
// container/heap oracle on arbitrary op streams: any divergence in firing
// order, clock, or pending counts is a determinism bug.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x01, 0x10, 0xa0, 0x40, 0x40})
	f.Add([]byte{0x90, 0x03, 0x50, 0xff, 0x10, 0xb0, 0xff, 0xff, 0x80, 0x02, 0xa0, 0x01, 0x01})
	f.Add([]byte{0xd5, 0x05, 0xe2, 0x30, 0x00, 0x30, 0x00, 0xc1})
	f.Add([]byte{0x50, 0x02, 0x07, 0x60, 0x02, 0x07, 0x41, 0x02, 0x07, 0xff, 0xb0, 0x10, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		got := runByteWorkload(New(), data)
		want := runByteWorkload(newOracle(), data)
		if len(got) != len(want) {
			t.Fatalf("trace lengths differ: %d vs oracle %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("diverged at step %d: got (at=%d id=%d), oracle (at=%d id=%d)",
					i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
	})
}
