package mem

import "awgsim/internal/hashutil"

// pageShift sizes a functional-store page at 512 words (4 KB), the sweet
// spot for the kernels' synchronization variables: a benchmark's whole
// variable block usually lands in one or two pages, so the last-page hit
// path serves almost every bank-service read.
const (
	pageShift = 9
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// wordStore is the word-granularity functional value store: a paged flat
// array reached through an open-addressed page directory, replacing the
// per-word Go map on the bank-service path. Absent words read as zero, as
// the map did; pages are never freed within a run.
//
// The directory maps page number -> 1-based slab index (0 = unallocated),
// and a one-entry last-page cache short-circuits the directory probe for
// the streaming case.
type wordStore struct {
	dir      hashutil.Flat[uint64, int32]
	pages    [][]int64
	lastPage uint64
	lastIdx  int32 // 0-based slab index of lastPage; -1 = empty cache
}

func newWordStore() *wordStore {
	return &wordStore{
		dir:     hashutil.NewFlat[uint64, int32](16, hashutil.Mix64),
		lastIdx: -1,
	}
}

// read returns the word at the (word-aligned) address a, zero when unset.
func (w *wordStore) read(a Addr) int64 {
	word := uint64(a) >> 3
	page := word >> pageShift
	if page == w.lastPage && w.lastIdx >= 0 {
		return w.pages[w.lastIdx][word&pageMask]
	}
	p := w.dir.Ref(page)
	if p == nil {
		return 0
	}
	w.lastPage, w.lastIdx = page, *p-1
	return w.pages[*p-1][word&pageMask]
}

// write sets the word at the (word-aligned) address a, allocating its page
// on first touch.
func (w *wordStore) write(a Addr, v int64) {
	word := uint64(a) >> 3
	page := word >> pageShift
	if page == w.lastPage && w.lastIdx >= 0 {
		w.pages[w.lastIdx][word&pageMask] = v
		return
	}
	p := w.dir.Put(page)
	if *p == 0 {
		w.pages = append(w.pages, newPage())
		*p = int32(len(w.pages))
	}
	idx := *p - 1
	w.lastPage, w.lastIdx = page, idx
	w.pages[idx][word&pageMask] = v
}

// corruptRange poisons every word of each allocated page in
// [page, page+n) with a splitmix64 stream (the same generator the fault
// subsystem uses, so the pattern is seed-addressable).
func (w *wordStore) corruptRange(page uint64, n int, seed uint64) int {
	words := 0
	state := seed
	for p := page; p < page+uint64(n); p++ {
		if w.dir.Ref(p) == nil {
			continue
		}
		for i := uint64(0); i < pageWords; i++ {
			w.write(Addr((p<<pageShift+i)<<3), int64(hashutil.SplitMix64(&state)))
			words++
		}
	}
	return words
}
