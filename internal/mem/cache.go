package mem

import "fmt"

// Cache is a set-associative tag array with true-LRU replacement and
// per-line pinning. It models presence only — data values live in the
// System's word store — which is all the timing model needs.
//
// Pinning implements the paper's monitored-line behaviour: the SyncMon sets
// a monitored bit in the L2 tag and "pins monitored cachelines such that
// they are not evicted" (Section V.B). A pinned line is skipped during
// victim selection; if every way in a set is pinned, the access bypasses
// the cache (treated as a miss without allocation).
type Cache struct {
	sets     int
	ways     int
	lineSize int
	lines    []cacheLine // sets*ways entries

	// Shift/mask fast path for power-of-two geometry (every Table 1 cache):
	// index() runs on each L1/L2 access and each atomic's allocate probe.
	lineShift uint
	setMask   uint64
	setShift  uint
	pow2      bool

	hits, misses uint64
	pinnedCount  int

	// lruClock is per-cache: only relative recency within one cache
	// matters, and a process-wide clock would be shared mutable state
	// across concurrently running simulations.
	lruClock uint64

	// touched lists the sets holding any non-zero line, in first-touch
	// order; touchedSet is its membership index. Every line outside a
	// touched set is zero — the invariant that lets a release clear only
	// touched sets instead of the whole tag array (the suite's working
	// sets occupy a few hundred lines of an 8k-line L2). Mutators call
	// touch before writing a line.
	touched    []int32
	touchedSet []bool
}

// A line's key folds the tag and valid bit into one word — tag<<1|1 when
// valid, all-zero when invalid — so the way scan is a single compare and a
// zeroed line (fresh slab, InvalidateAll) reads as invalid with no separate
// flag to maintain.
type cacheLine struct {
	key    uint64 // tag<<1 | 1; 0 = invalid
	pinned bool
	lru    uint64 // larger = more recently used
}

// NewCache builds a cache of the given total size, associativity and line
// size. Size must be a multiple of ways*lineSize.
func NewCache(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("mem: bad cache geometry %d/%d/%d", sizeBytes, ways, lineSize)
	}
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 || sizeBytes%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("mem: cache size %d not a multiple of ways*line %d", sizeBytes, ways*lineSize)
	}
	c := &Cache{
		sets:     sets,
		ways:     ways,
		lineSize: lineSize,
	}
	if sl, ok := getSlabs(sets, ways); ok {
		c.lines, c.touchedSet, c.touched = sl.lines, sl.touchedSet, sl.touched
	} else {
		c.lines = make([]cacheLine, sets*ways)
		c.touchedSet = make([]bool, sets)
	}
	if isPow2(lineSize) && isPow2(sets) {
		c.pow2 = true
		c.lineShift = uint(log2(lineSize))
		c.setMask = uint64(sets - 1)
		c.setShift = uint(log2(sets))
	}
	return c, nil
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// Pinned reports how many lines are currently pinned.
func (c *Cache) Pinned() int { return c.pinnedCount }

func (c *Cache) index(a Addr) (set int, tag uint64) {
	if c.pow2 {
		line := uint64(a) >> c.lineShift
		return int(line & c.setMask), line >> c.setShift
	}
	line := uint64(a) / uint64(c.lineSize)
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

func (c *Cache) set(i int) []cacheLine { return c.lines[i*c.ways : (i+1)*c.ways] }

// touch records that set i is about to hold a non-zero line.
func (c *Cache) touch(i int) {
	if !c.touchedSet[i] {
		c.touchedSet[i] = true
		c.touched = append(c.touched, int32(i))
	}
}

// Access looks up a. On a hit it refreshes LRU state and returns true. On a
// miss it returns false and, when allocate is set, fills the line by
// evicting the least recently used unpinned way (no allocation happens if
// the whole set is pinned).
func (c *Cache) Access(a Addr, allocate bool) bool {
	set, tag := c.index(a)
	key := tag<<1 | 1
	ways := c.set(set)
	c.lruClock++
	for i := range ways {
		if ways[i].key == key {
			ways[i].lru = c.lruClock
			c.hits++
			return true
		}
	}
	c.misses++
	if !allocate {
		return false
	}
	victim := -1
	for i := range ways {
		if ways[i].pinned {
			continue
		}
		if ways[i].key == 0 {
			victim = i
			break
		}
		if victim == -1 || ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if victim == -1 {
		return false // fully pinned set: bypass
	}
	// The fill is the only transition from a zero line to a non-zero one
	// (LRU refresh and pin toggles touch valid lines only), so it is the
	// one mutation that has to maintain the touched-set invariant.
	c.touch(set)
	ways[victim] = cacheLine{key: key, lru: c.lruClock}
	return false
}

// Contains reports whether a is resident, without touching LRU state.
func (c *Cache) Contains(a Addr) bool {
	set, tag := c.index(a)
	key := tag<<1 | 1
	for _, w := range c.set(set) {
		if w.key == key {
			return true
		}
	}
	return false
}

// Pin marks a's line as unevictable, allocating it first if absent. It
// reports whether the pin took effect (it fails only if the set is already
// fully pinned by other lines).
func (c *Cache) Pin(a Addr) bool {
	set, tag := c.index(a)
	key := tag<<1 | 1
	ways := c.set(set)
	for i := range ways {
		if ways[i].key == key {
			if !ways[i].pinned {
				ways[i].pinned = true
				c.pinnedCount++
			}
			return true
		}
	}
	c.Access(a, true)
	for i := range ways {
		if ways[i].key == key {
			ways[i].pinned = true
			c.pinnedCount++
			return true
		}
	}
	return false
}

// Unpin clears the pin on a's line, making it evictable again.
func (c *Cache) Unpin(a Addr) {
	set, tag := c.index(a)
	key := tag<<1 | 1
	ways := c.set(set)
	for i := range ways {
		if ways[i].key == key && ways[i].pinned {
			ways[i].pinned = false
			c.pinnedCount--
			return
		}
	}
}

// InvalidateAll drops every line, including pinned ones. Only touched
// sets need zeroing — everything else already is.
func (c *Cache) InvalidateAll() {
	for _, s := range c.touched {
		clear(c.set(int(s)))
		c.touchedSet[s] = false
	}
	c.touched = c.touched[:0]
	c.pinnedCount = 0
}

// HitRate reports hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
