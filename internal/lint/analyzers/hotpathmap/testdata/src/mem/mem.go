// Package mem seeds bank-service map traffic: Read/Write and
// ContextTraffic are hot roots, construction-time code is not.
package mem

type system struct {
	words    map[uint64]int64
	banks    map[uint64]int
	chanFree map[int]int64
}

func (s *system) Read(addr uint64) int64 {
	return s.words[addr] // want `map indexed in Read, reachable from a bank-service/wake hot path`
}

func (s *system) Write(addr uint64, v int64) {
	s.bankOf(addr)
	s.words[addr] = v // want `map indexed in Write, reachable from a bank-service/wake hot path`
}

func (s *system) bankOf(addr uint64) int {
	return s.banks[addr] // want `map indexed in bankOf, reachable from a bank-service/wake hot path`
}

func (s *system) ContextTraffic(lines int) int64 {
	var done int64
	for ch, free := range s.chanFree { // want `map ranged over in ContextTraffic, reachable from a bank-service/wake hot path`
		if ch < lines && free > done {
			done = free
		}
	}
	return done
}

// newSystem runs once at construction: seeding the maps there is cold.
func newSystem(n int) *system {
	s := &system{words: map[uint64]int64{}, banks: map[uint64]int{}, chanFree: map[int]int64{}}
	for i := 0; i < n; i++ {
		s.banks[uint64(i)] = i % 4
	}
	return s
}

// Access runs per access: clearing a map there walks its buckets, while
// clearing a slice is plain memory traffic.
func (s *system) Access(buf []int64) {
	clear(buf)
	clear(s.banks) // want `map cleared in Access, reachable from a bank-service/wake hot path`
}
