package gpu

import (
	"math/rand"
	"sort"
	"testing"

	"awgsim/internal/mem"
	"awgsim/internal/metrics"
)

// refChar is the slice-based Table 2 characterization that the atomic
// unit's O(1) counters replaced, kept as their reference: every begin and
// met scans the variable's waited-for values, conditions and open
// episodes, and every write atomic bumps each open episode's count.
type refChar struct {
	idx   map[mem.Addr]int // aligned addr -> 1-based slab ref
	slab  []refVarChar
	addrs []mem.Addr // slab insertion order (characterization re-sorts)
}

type refVarChar struct {
	wantVals      []int64       // distinct waited-for values
	conds         []refCondStat // concurrent waiters per (addr, want) condition
	epWGs         []WGID        // active episodes: the waiting WGs...
	epCounts      []int         // ...and updates observed since each began
	updatesPerMet []int

	maxWaiters int
}

type refCondStat struct {
	key condKey
	n   int
}

func (p *refChar) charFor(v Var) *refVarChar {
	addr := v.Addr.WordAligned()
	r, ok := p.idx[addr]
	if !ok {
		p.slab = append(p.slab, refVarChar{})
		p.addrs = append(p.addrs, addr)
		r = len(p.slab)
		p.idx[addr] = r
	}
	return &p.slab[r-1]
}

func (p *refChar) charBegin(w *WG, v Var, want int64) {
	c := p.charFor(v)
	seen := false
	for _, wv := range c.wantVals {
		if wv == want {
			seen = true
			break
		}
	}
	if !seen {
		c.wantVals = append(c.wantVals, want)
	}
	k := condKey{v.Addr, want}
	bumped := false
	for i := range c.conds {
		if c.conds[i].key == k {
			c.conds[i].n++
			if c.conds[i].n > c.maxWaiters {
				c.maxWaiters = c.conds[i].n
			}
			bumped = true
			break
		}
	}
	if !bumped {
		c.conds = append(c.conds, refCondStat{key: k, n: 1})
		if c.maxWaiters < 1 {
			c.maxWaiters = 1
		}
	}
	for i, id := range c.epWGs {
		if id == w.id {
			c.epCounts[i] = 0
			return
		}
	}
	c.epWGs = append(c.epWGs, w.id)
	c.epCounts = append(c.epCounts, 0)
}

func (p *refChar) charMet(w *WG, v Var, want int64) {
	c := p.charFor(v)
	k := condKey{v.Addr, want}
	for i := range c.conds {
		if c.conds[i].key == k {
			if c.conds[i].n > 0 {
				c.conds[i].n--
			}
			break
		}
	}
	for i, id := range c.epWGs {
		if id == w.id {
			c.updatesPerMet = append(c.updatesPerMet, c.epCounts[i])
			last := len(c.epWGs) - 1
			c.epWGs[i], c.epCounts[i] = c.epWGs[last], c.epCounts[last]
			c.epWGs, c.epCounts = c.epWGs[:last], c.epCounts[:last]
			return
		}
	}
}

func (p *refChar) observeUpdate(a mem.Addr) {
	r, ok := p.idx[a.WordAligned()]
	if !ok {
		return
	}
	c := &p.slab[r-1]
	for i := range c.epCounts {
		c.epCounts[i]++
	}
}

// characterization sums the per-met update counts as floats in address
// order, as the run summary once did.
func (p *refChar) characterization() charSummary {
	var conds, maxW int
	var updSum float64
	var updN int
	addrs := append([]mem.Addr(nil), p.addrs...)
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		c := &p.slab[p.idx[a]-1]
		conds += len(c.wantVals)
		if c.maxWaiters > maxW {
			maxW = c.maxWaiters
		}
		for _, u := range c.updatesPerMet {
			updSum += float64(u)
			updN++
		}
	}
	sum := charSummary{
		syncVars: len(p.slab),
		stats:    metrics.SyncVarStats{Conditions: conds, MaxWaiters: maxW},
	}
	if updN > 0 {
		sum.stats.UpdatesPerCond = updSum / float64(updN)
	}
	return sum
}

// stateBytes is the characterization's term of Machine.StateBytes, charged
// by the slices' lengths.
func (p *refChar) stateBytes() int {
	n := 24 * len(p.addrs)
	for i := range p.slab {
		c := &p.slab[i]
		n += 64 + 8*(len(c.wantVals)+len(c.epWGs)+len(c.epCounts)+len(c.updatesPerMet)) + 24*len(c.conds)
	}
	return n
}

// charWaitAddrs are the variables the fuzz stream waits on: 0x104 shares
// 0x100's word. charUnwaited is a word nobody waits on; writes reach it.
var charWaitAddrs = [4]mem.Addr{0x100, 0x104, 0x140, 0x208}

const (
	charUnwaited = mem.Addr(0x300)
	charWGs      = 8
)

// Op kinds of a characterization stream: each op is a (kind, arg) byte
// pair; see FuzzCharacterization.
const (
	charOpBegin = iota
	charOpMet
	charOpWrite
)

// charBeginArg packs a begin op's WG, variable and want into its arg byte.
func charBeginArg(wg, addr, want int) byte { return byte(wg | addr<<3 | want<<5) }

// FuzzCharacterization drives the atomic unit's characterization and
// refChar with one stream of wait begins, mets and write atomics, and
// checks after every op that they report the same Table 2 summary and
// StateBytes term. As in the machine, a WG begins only without an open
// episode and meets only with one.
func FuzzCharacterization(f *testing.F) {
	// SPM-like: every WG waits on one lock word that is polled by writes.
	var spm []byte
	for wg := 0; wg < charWGs; wg++ {
		spm = append(spm, charOpBegin, charBeginArg(wg, 0, 0))
	}
	for wg := 0; wg < charWGs; wg++ {
		for i := 0; i < 20; i++ {
			spm = append(spm, charOpWrite, 0)
		}
		spm = append(spm, charOpMet, byte(wg), charOpBegin, charBeginArg(wg, 1, 0))
	}
	f.Add(spm)
	// FAM-like: one variable, each WG waiting for its own ticket.
	var fam []byte
	for wg := 0; wg < charWGs; wg++ {
		fam = append(fam, charOpBegin, charBeginArg(wg, 2, wg%4))
	}
	for wg := 0; wg < charWGs; wg++ {
		fam = append(fam, charOpWrite, 2, charOpWrite, 4, charOpMet, byte(wg))
	}
	f.Add(fam)
	rng := rand.New(rand.NewSource(1))
	mixed := make([]byte, 1024)
	rng.Read(mixed)
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, data []byte) {
		got := newAtomicUnit(nil, len(charWaitAddrs))
		ref := &refChar{idx: map[mem.Addr]int{}}
		var wgs [charWGs]*WG
		for i := range wgs {
			wgs[i] = &WG{id: WGID(i)}
		}
		var open [charWGs]bool
		var vars [charWGs]Var
		var wants [charWGs]int64
		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			switch data[i] % 3 {
			case charOpBegin:
				wg := arg & 7
				if open[wg] {
					continue
				}
				open[wg] = true
				vars[wg] = Var{Addr: charWaitAddrs[arg>>3&3], Scope: Global}
				wants[wg] = int64(arg >> 5 & 3)
				got.charBegin(wgs[wg], vars[wg], wants[wg])
				ref.charBegin(wgs[wg], vars[wg], wants[wg])
			case charOpMet:
				wg := arg & 7
				if !open[wg] {
					continue
				}
				open[wg] = false
				got.charMet(wgs[wg])
				ref.charMet(wgs[wg], vars[wg], wants[wg])
			case charOpWrite:
				a := charUnwaited
				if arg%5 < len(charWaitAddrs) {
					a = charWaitAddrs[arg%5]
				}
				got.observeUpdate(a)
				ref.observeUpdate(a)
			}
			if g, w := got.characterization(), ref.characterization(); g != w {
				t.Fatalf("op %d: characterization %+v, reference %+v", i/2, g, w)
			}
			if g, w := got.stateBytes(), ref.stateBytes(); g != w {
				t.Fatalf("op %d: StateBytes term %d, reference %d", i/2, g, w)
			}
		}
	})
}
