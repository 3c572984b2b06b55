package hashutil

// Flat is a deterministic open-addressed hash map with linear probing and
// backward-shift deletion. It is the indexing half of the simulator's
// data-oriented hot state: the SyncMon condition cache, the CP spill table,
// the memory page directory and the Table 2 characterization all keep their
// payloads in slabs and use a Flat to find slots by key, replacing Go maps
// on the bank-service path (no per-entry allocation, no hashing seed
// randomization, no iteration — so no order can leak into simulated
// behavior).
//
// The caller supplies the hash function at construction; equality is the
// key type's ==. Pointers returned by Ref/Put are invalidated by the next
// Put or Delete (the table may grow or shift slots).
//
// A table allocates nothing until its first Put: owners hold it by value,
// and one that is never written costs a run no allocation, while Ref,
// Delete and Len on it simply miss.
type Flat[K comparable, V any] struct {
	hash func(K) uint64
	keys []K // keys, vals and used are nil until the first Put
	vals []V
	used []bool
	mask uint64 // len(keys)-1, or the first Put's size-1 before it
	live int
}

// NewFlat returns an empty table that the first Put sizes for at least hint
// entries before its first growth. hash must be deterministic across
// processes (no map-seed or pointer inputs) — simulated state depends on
// nothing but the op sequence. The table is used in place; copy it only
// before its first Put.
func NewFlat[K comparable, V any](hint int, hash func(K) uint64) Flat[K, V] {
	n := 8
	for n*3 < hint*4 { // keep load factor under 3/4 for the hint
		n *= 2
	}
	return Flat[K, V]{hash: hash, mask: uint64(n - 1)}
}

// Len reports the number of live entries.
func (f *Flat[K, V]) Len() int { return f.live }

// Ref returns a pointer to k's value, or nil when absent. The pointer is
// valid only until the next Put or Delete.
func (f *Flat[K, V]) Ref(k K) *V {
	if f.live == 0 {
		return nil
	}
	i := f.hash(k) & f.mask
	for f.used[i] {
		if f.keys[i] == k {
			return &f.vals[i]
		}
		i = (i + 1) & f.mask
	}
	return nil
}

// Put returns a pointer to k's value, inserting a zero value first when k
// is absent. The pointer is valid only until the next Put or Delete.
func (f *Flat[K, V]) Put(k K) *V {
	if f.used == nil {
		f.alloc(int(f.mask) + 1)
	} else if (f.live+1)*4 > len(f.keys)*3 {
		f.grow()
	}
	i := f.hash(k) & f.mask
	for f.used[i] {
		if f.keys[i] == k {
			return &f.vals[i]
		}
		i = (i + 1) & f.mask
	}
	f.used[i] = true
	f.keys[i] = k
	f.live++
	return &f.vals[i]
}

// Delete removes k, reporting whether it was present. Deletion backward-
// shifts the following probe cluster so no tombstones accumulate: lookup
// cost stays bounded by the load factor no matter how the key set churns.
func (f *Flat[K, V]) Delete(k K) bool {
	if f.live == 0 {
		return false
	}
	i := f.hash(k) & f.mask
	for f.used[i] {
		if f.keys[i] == k {
			f.backshift(i)
			f.live--
			return true
		}
		i = (i + 1) & f.mask
	}
	return false
}

// backshift vacates slot i, sliding later cluster members down when their
// home position permits (the classical linear-probing deletion).
func (f *Flat[K, V]) backshift(i uint64) {
	var zeroK K
	var zeroV V
	j := i
	for {
		j = (j + 1) & f.mask
		if !f.used[j] {
			break
		}
		home := f.hash(f.keys[j]) & f.mask
		// Move j down to i unless that would place it before its home
		// position within the cluster.
		if (j-home)&f.mask >= (j-i)&f.mask {
			f.keys[i], f.vals[i] = f.keys[j], f.vals[j]
			i = j
		}
	}
	f.used[i] = false
	f.keys[i], f.vals[i] = zeroK, zeroV
}

// alloc gives the table n empty slots.
func (f *Flat[K, V]) alloc(n int) {
	f.keys = make([]K, n)
	f.vals = make([]V, n)
	f.used = make([]bool, n)
	f.mask = uint64(n - 1)
}

func (f *Flat[K, V]) grow() {
	oldK, oldV, oldU := f.keys, f.vals, f.used
	f.alloc(2 * len(oldK))
	for s, u := range oldU {
		if !u {
			continue
		}
		i := f.hash(oldK[s]) & f.mask
		for f.used[i] {
			i = (i + 1) & f.mask
		}
		f.used[i] = true
		f.keys[i] = oldK[s]
		f.vals[i] = oldV[s]
	}
}
