// Package cp seeds single-home violations against a stand-in for the CP's
// spilled-condition table and its intrusive check order.
package cp

const nilRef int32 = -1

type condKey struct {
	addr int64
	want int64
}

// spillSlot mirrors a condition slot's protected links.
type spillSlot struct {
	key          condKey
	wLen         int32
	oPrev, oNext int32
	next         int32
}

// spillTable mirrors the table's protected containers.
type spillTable struct {
	ents         []spillSlot
	freeEnt      int32
	oHead, oTail int32
}

// free is an approved transfer function: unlinking a condition from the
// check order here is sanctioned.
func (t *spillTable) free(e int32) {
	s := &t.ents[e]
	if s.oPrev == nilRef {
		t.oHead = s.oNext
	} else {
		t.ents[s.oPrev].oNext = s.oNext
	}
	if s.oNext == nilRef {
		t.oTail = s.oPrev
	} else {
		t.ents[s.oNext].oPrev = s.oPrev
	}
	s.next = t.freeEnt
	t.freeEnt = e
}

// skipHead is not approved to unlink the check order directly — a
// condition must leave the order with its last waiter, through free.
func (t *spillTable) skipHead() {
	if t.oHead != nilRef {
		t.oHead = t.ents[t.oHead].oNext // want `spillTable\.oHead holds single-home waiter state`
	}
}

// Processor mirrors the CP's protected table field.
type Processor struct {
	tab spillTable
}

// rewind is not an approved transfer function: replacing the table
// wholesale outside its accessors can split a waiter across homes.
func (p *Processor) rewind(tab spillTable) {
	p.tab = tab // want `Processor\.tab holds single-home waiter state`
}
