package mem

import "sync"

// Tag-array recycling. Every machine allocates (and the runtime zeroes)
// a few hundred KB of cacheLine arrays; the experiment sweeps build
// hundreds of machines per suite. Released arrays are guaranteed all-zero
// (release invalidates through the touched-set list), so NewCache can
// adopt one without the big memclr.

type cacheSlabs struct {
	lines      []cacheLine
	touchedSet []bool
	touched    []int32
}

var slabPool struct {
	mu    sync.Mutex
	byGeo map[[2]int][]cacheSlabs // key: {sets, ways}
}

const slabPoolCapPerGeo = 128

func getSlabs(sets, ways int) (cacheSlabs, bool) {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	list := slabPool.byGeo[[2]int{sets, ways}]
	if n := len(list); n > 0 {
		s := list[n-1]
		list[n-1] = cacheSlabs{}
		slabPool.byGeo[[2]int{sets, ways}] = list[:n-1]
		return s, true
	}
	return cacheSlabs{}, false
}

func putSlabs(sets, ways int, s cacheSlabs) {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	if slabPool.byGeo == nil {
		slabPool.byGeo = make(map[[2]int][]cacheSlabs)
	}
	key := [2]int{sets, ways}
	if len(slabPool.byGeo[key]) < slabPoolCapPerGeo {
		slabPool.byGeo[key] = append(slabPool.byGeo[key], s)
	}
}

// release zeroes the cache's occupied sets (restoring the all-zero array
// the touched-set invariant promises) and returns its slabs to the pool.
// The cache must not be used afterward.
func (c *Cache) release() {
	c.InvalidateAll()
	putSlabs(c.sets, c.ways, cacheSlabs{lines: c.lines, touchedSet: c.touchedSet, touched: c.touched[:0]})
	c.lines, c.touchedSet, c.touched = nil, nil, nil
}

// ReleaseBuffers returns the hierarchy's tag arrays to the recycle pool
// for a later NewSystem. It must be the caller's last use of the system.
func (s *System) ReleaseBuffers() {
	for _, c := range s.l1 {
		c.release()
	}
	s.l2.release()
}
