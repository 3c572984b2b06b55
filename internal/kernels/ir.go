package kernels

import (
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// The benchmark programs. Each builder in this file assembles one kernel's
// body as a prog.Program: address and target arithmetic lives in registers,
// and scoped variable tables become pool ranges indexed by geometry
// registers (the WG's ID or scheduling group). The device-operation
// sequence every WG issues is pinned by the golden records. Writing guide:
// see README.md and DESIGN.md §11.

// addrWords converts an address slice for prog.Builder.AddrRange.
func addrWords(addrs []mem.Addr) []uint64 {
	out := make([]uint64, len(addrs))
	for i, a := range addrs {
		out[i] = uint64(a)
	}
	return out
}

// irScope maps the gpu scope onto the IR's.
func irScope(s gpu.Scope) prog.Scope {
	if s == gpu.Local {
		return prog.Local
	}
	return prog.Global
}

// irLoop emits `for i := start; !(i exitCmp limit); i++ { body(i) }` — the
// exit comparison is the loop condition's negation (GE for `i < limit`,
// GT for `i <= limit`).
func irLoop(b *prog.Builder, start, limit int64, exitCmp prog.Cmp, body func(i prog.Src)) {
	i := b.Let(prog.Imm(start))
	end := b.Label()
	top := b.Here()
	b.Br(exitCmp, i, prog.Imm(limit), end)
	body(i)
	b.ArithTo(prog.OpAdd, i, i, prog.Imm(1))
	b.Jmp(top)
	b.Bind(end)
}

// irSkewedWork emits skewedWork(p, wg, i) into a register.
func irSkewedWork(b *prog.Builder, p Params, wg, i prog.Src) prog.Src {
	spread := b.Mod(b.Add(b.Mul(wg, prog.Imm(2654435761)), b.Mul(i, prog.Imm(40503))), prog.Imm(8))
	return b.Add(prog.Imm(int64(p.OutsideWork/2)), b.Div(b.Mul(prog.Imm(int64(p.OutsideWork)), spread), prog.Imm(2)))
}

// irCentralBarrier emits the epoch-th (from 1) rendezvous of a single-level
// global barrier on the counter at m: count in, then poll for the
// full-arrival target unless this WG completed it. It is the validation
// epilogue of the mutex benchmarks (the reason every benchmark deadlocks
// under the busy-waiting Baseline when WGs are lost mid-kernel).
func irCentralBarrier(b *prog.Builder, m prog.Mem, epoch int64) {
	target := b.Mul(prog.Imm(epoch), b.Geom(prog.GeomNumWGs))
	old := b.AtomicAdd(m, prog.Imm(1))
	skip := b.Label()
	b.Br(prog.EQ, b.Add(old, prog.Imm(1)), target, skip)
	b.AwaitGE(m, target)
	b.Bind(skip)
}

// irScopedTable interns a per-group variable table and returns the memory
// operand its idx-th entry, as a runtime-indexed pool access.
func irScopedTable(b *prog.Builder, addrs []mem.Addr, idx prog.Src, sc prog.Scope) prog.Mem {
	base := b.AddrRange(addrWords(addrs))
	return prog.At(b.Add(prog.Imm(base), idx), sc)
}

// irGroupIdx returns the lock/counter index the scoped benchmarks use: 0 in
// global scope, the WG's scheduling group in local scope.
func irGroupIdx(b *prog.Builder, scope gpu.Scope) prog.Src {
	if scope == gpu.Local {
		return b.Geom(prog.GeomGroup)
	}
	return b.Let(prog.Imm(0))
}

// spinMutexIR is SPM/SPMBO: Iters critical sections on a shared counter
// guarded by HeteroSync's test-and-set lock (exchange 1 in until the old
// value was 0; unlock stores 0), one lock globally or one per scheduling
// group in local scope. backoff selects the SPMBO wait hint (software
// exponential backoff between failed attempts).
func spinMutexIR(p Params, scope gpu.Scope, backoff bool, locks, counters []mem.Addr, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	sc := irScope(scope)
	idx := irGroupIdx(b, scope)
	lock := irScopedTable(b, locks, idx, sc)
	ctr := irScopedTable(b, counters, idx, sc)
	wg := b.Geom(prog.GeomID)
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		b.AcquireExch(lock, prog.Imm(1), prog.Imm(0), backoff)
		x := b.Load(ctr)
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.Store(ctr, b.Add(x, prog.Imm(1)))
		b.AtomicExchX(lock, prog.Imm(0))
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// irTicketLock emits the lock half of HeteroSync's centralized ticket lock
// (FAM): fetch-add a ticket from tail, then wait until serving reaches it,
// returning the ticket register. The serving counter is monotonic, so the
// >= wait keeps a sparse poller (Timeout, Sleep) from missing its turn.
// Unlock is a fetch-add on serving.
func irTicketLock(b *prog.Builder, tail, serving prog.Mem) prog.Src {
	t := b.AtomicAdd(tail, prog.Imm(1))
	b.AwaitGE(serving, t)
	return t
}

// ticketMutexIR is FAM: Iters critical sections under the ticket lock.
func ticketMutexIR(p Params, scope gpu.Scope, tails, servings, counters []mem.Addr, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	sc := irScope(scope)
	idx := irGroupIdx(b, scope)
	tail := irScopedTable(b, tails, idx, sc)
	serving := irScopedTable(b, servings, idx, sc)
	ctr := irScopedTable(b, counters, idx, sc)
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(prog.Imm(int64(p.OutsideWork)))
		irTicketLock(b, tail, serving)
		x := b.Load(ctr)
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.Store(ctr, b.Add(x, prog.Imm(1)))
		b.AtomicAddX(serving, prog.Imm(1))
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// queueMutexIR is SLM, the decentralized ticket ("sleep") mutex of
// Figure 10: Iters critical sections under the queue mutexes (one per
// group in local scope). Lock takes a ticket from the tail and waits for
// its own slot to read 1, so each variable sees a single waiter and a
// single meaningful update; unlock retires the slot (-1) and unlocks the
// next. Slot values: 0 untouched, 1 unlocked (holder may enter), -1
// retired; the benchmark's Init writes 1 to each ring's slot 0. A ring's
// slot count must exceed the acquires outstanding at once (holders + 1).
// Each lock's slot ring occupies a contiguous pool range, so slot
// selection is base + ticket%len — the pool addresses stay line-separated
// even though their indices are dense.
func queueMutexIR(p Params, scope gpu.Scope, tails []mem.Addr, slots [][]mem.Addr, counters []mem.Addr, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	sc := irScope(scope)
	idx := irGroupIdx(b, scope)
	tail := irScopedTable(b, tails, idx, sc)
	ctr := irScopedTable(b, counters, idx, sc)
	nSlots := int64(len(slots[0]))
	slotsBase := b.AddrRange(addrWords(slots[0]))
	for _, ring := range slots[1:] {
		b.AddrRange(addrWords(ring))
	}
	ringBase := b.Add(prog.Imm(slotsBase), b.Mul(idx, prog.Imm(nSlots)))
	slotAt := func(t prog.Src) prog.Mem {
		return prog.At(b.Add(ringBase, b.Mod(t, prog.Imm(nSlots))), sc)
	}
	wg := b.Geom(prog.GeomID)
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		t := b.AtomicAdd(tail, prog.Imm(1))
		b.AwaitEq(slotAt(t), prog.Imm(1))
		x := b.Load(ctr)
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.Store(ctr, b.Add(x, prog.Imm(1)))
		b.AtomicExchX(slotAt(t), prog.Imm(-1))
		b.AtomicExchX(slotAt(b.Add(t, prog.Imm(1))), prog.Imm(1))
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// treeBarrierIR is TB/TBEX: Iters rounds of per-round work, each WG
// stamping its round token and then crossing the two-level tree barrier
// (see TreeBarrier). A WG counts in on its group counter; the group's last
// arriver counts in on the global counter, waits for every group, and
// releases its group with one more bump; everyone else waits for that
// release (TreeBarrier.LocalTargets).
func treeBarrierIR(p Params, localScope gpu.Scope, localCount []mem.Addr, globalCount mem.Addr, perWG []mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	sc := irScope(localScope)
	lc := irScopedTable(b, localCount, b.Geom(prog.GeomGroup), sc)
	gc := b.GVar(uint64(globalCount))
	me := irScopedTable(b, perWG, b.Geom(prog.GeomID), prog.Global)
	gs := b.Geom(prog.GeomGroupSize)
	perEpoch := b.Add(gs, prog.Imm(1))
	wg := b.Geom(prog.GeomID)
	irLoop(b, 1, int64(p.Iters), prog.GT, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		b.Store(me, i)
		// The tree barrier's i-th rendezvous.
		arrive := b.Add(b.Mul(b.Sub(i, prog.Imm(1)), perEpoch), gs)
		release := b.Mul(i, perEpoch)
		old := b.AtomicAdd(lc, prog.Imm(1))
		waiter, out := b.Label(), b.Label()
		b.Br(prog.NE, b.Add(old, prog.Imm(1)), arrive, waiter)
		// Last arriver: join the global phase, then release the group.
		gTarget := b.Mul(i, prog.Imm(int64(p.Groups)))
		oldG := b.AtomicAdd(gc, prog.Imm(1))
		released := b.Label()
		b.Br(prog.EQ, b.Add(oldG, prog.Imm(1)), gTarget, released)
		b.AwaitGE(gc, gTarget)
		b.Bind(released)
		b.AtomicAddX(lc, prog.Imm(1))
		b.Jmp(out)
		b.Bind(waiter)
		b.AwaitGE(lc, release)
		b.Bind(out)
	})
	return b.MustBuild()
}

// lfTreeBarrierIR is LFTB/LFTBEX: Iters rounds of per-round work and the
// decentralized ("lock-free") two-level tree barrier, with one flag word per
// WG (wgFlag, scoped localScope) written once per direction per epoch, so
// every condition has exactly one waiter and one update (Table 2's LFTB
// row). Arrival writes the epoch, release writes its negation. Group
// masters gather member flags, rendezvous through per-group flags
// (groupFlag) with the global master (group 0's), and release in reverse.
// Group membership is the machine's blocked placement — group g owns the
// contiguous WG range [g*L, (g+1)*L) with its master at g*L — so member
// iteration is a register loop over flag-table indices.
func lfTreeBarrierIR(p Params, localScope gpu.Scope, wgFlag, groupFlag, perWG []mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	sc := irScope(localScope)
	l := prog.Imm(int64(p.WGsPerGroup()))
	wgFlagBase := b.AddrRange(addrWords(wgFlag))
	grpFlagBase := b.AddrRange(addrWords(groupFlag))
	me := irScopedTable(b, perWG, b.Geom(prog.GeomID), prog.Global)
	self := b.Geom(prog.GeomID)
	g := b.Geom(prog.GeomGroup)
	master := b.Mul(g, l)
	limit := b.Add(master, l)
	id := b.Reg()
	flagAt := func(i prog.Src) prog.Mem { return prog.At(b.Add(prog.Imm(wgFlagBase), i), sc) }
	grpFlagAt := func(i prog.Src) prog.Mem { return prog.At(b.Add(prog.Imm(grpFlagBase), i), prog.Global) }
	wg := b.Geom(prog.GeomID)
	irLoop(b, 1, int64(p.Iters), prog.GT, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		b.Store(me, i)
		// The i-th rendezvous; arrivals write i, releases write -i.
		neg := b.Sub(prog.Imm(0), i)
		isMaster, out := b.Label(), b.Label()
		b.Br(prog.EQ, self, master, isMaster)
		// Member: signal own flag, await release.
		b.AtomicExchX(flagAt(self), i)
		b.AwaitEq(flagAt(self), neg)
		b.Jmp(out)
		b.Bind(isMaster)
		// Gather the group's members.
		b.ArithTo(prog.OpAdd, id, master, prog.Imm(1))
		gatherDone := b.Label()
		gatherTop := b.Here()
		b.Br(prog.GE, id, limit, gatherDone)
		b.AwaitEq(flagAt(id), i)
		b.ArithTo(prog.OpAdd, id, id, prog.Imm(1))
		b.Jmp(gatherTop)
		b.Bind(gatherDone)
		// Cross-group rendezvous through the global master (group 0).
		otherMaster, rendezvoused := b.Label(), b.Label()
		b.Br(prog.NE, g, prog.Imm(0), otherMaster)
		gg := b.Let(prog.Imm(1))
		awaitDone := b.Label()
		awaitTop := b.Here()
		b.Br(prog.GE, gg, prog.Imm(int64(p.Groups)), awaitDone)
		b.AwaitEq(grpFlagAt(gg), i)
		b.ArithTo(prog.OpAdd, gg, gg, prog.Imm(1))
		b.Jmp(awaitTop)
		b.Bind(awaitDone)
		b.Mov(gg, prog.Imm(1))
		relDone := b.Label()
		relTop := b.Here()
		b.Br(prog.GE, gg, prog.Imm(int64(p.Groups)), relDone)
		b.AtomicExchX(grpFlagAt(gg), neg)
		b.ArithTo(prog.OpAdd, gg, gg, prog.Imm(1))
		b.Jmp(relTop)
		b.Bind(relDone)
		b.Jmp(rendezvoused)
		b.Bind(otherMaster)
		b.AtomicExchX(grpFlagAt(g), i)
		b.AwaitEq(grpFlagAt(g), neg)
		b.Bind(rendezvoused)
		// Release the group's members.
		b.ArithTo(prog.OpAdd, id, master, prog.Imm(1))
		memRelDone := b.Label()
		memRelTop := b.Here()
		b.Br(prog.GE, id, limit, memRelDone)
		b.AtomicExchX(flagAt(id), neg)
		b.ArithTo(prog.OpAdd, id, id, prog.Imm(1))
		b.Jmp(memRelTop)
		b.Bind(memRelDone)
		b.Bind(out)
	})
	return b.MustBuild()
}

// hashTableIR is the HashTable application: Iters insertions, each into a
// WG- and round-dependent bucket guarded by its own test-and-set lock.
func hashTableIR(p Params, buckets int, locks, counts []mem.Addr, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	lockBase := b.AddrRange(addrWords(locks))
	countBase := b.AddrRange(addrWords(counts))
	wg := b.Geom(prog.GeomID)
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		key := b.Mod(b.Add(b.Mul(wg, prog.Imm(31)), b.Mul(i, prog.Imm(17))), prog.Imm(int64(buckets)))
		lock := prog.At(b.Add(prog.Imm(lockBase), key), prog.Global)
		count := prog.At(b.Add(prog.Imm(countBase), key), prog.Global)
		b.AcquireExch(lock, prog.Imm(1), prog.Imm(0), false)
		n := b.Load(count)
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.Store(count, b.Add(n, prog.Imm(1)))
		b.AtomicExchX(lock, prog.Imm(0))
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// bankAccountIR is the BankAccount application: Iters transfers between
// two distinct ticket-locked accounts, locks taken in account order.
func bankAccountIR(p Params, accounts int, tails, servings, balances []mem.Addr, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	n := prog.Imm(int64(accounts))
	tailBase := b.AddrRange(addrWords(tails))
	servingBase := b.AddrRange(addrWords(servings))
	balanceBase := b.AddrRange(addrWords(balances))
	tailAt := func(i prog.Src) prog.Mem { return prog.At(b.Add(prog.Imm(tailBase), i), prog.Global) }
	servingAt := func(i prog.Src) prog.Mem { return prog.At(b.Add(prog.Imm(servingBase), i), prog.Global) }
	balanceAt := func(i prog.Src) prog.Mem { return prog.At(b.Add(prog.Imm(balanceBase), i), prog.Global) }
	wg := b.Geom(prog.GeomID)
	lo, hi := b.Reg(), b.Reg()
	tmp := b.Reg()
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		from := b.Mod(b.Add(wg, i), n)
		to := b.Mod(b.Add(b.Add(b.Mul(wg, prog.Imm(7)), b.Mul(i, prog.Imm(3))), prog.Imm(1)), n)
		distinct := b.Label()
		b.Br(prog.NE, from, to, distinct)
		b.ArithTo(prog.OpMod, to, b.Add(to, prog.Imm(1)), n)
		b.Bind(distinct)
		// Lock in account order to avoid application-level deadlock.
		b.Mov(lo, from)
		b.Mov(hi, to)
		ordered := b.Label()
		b.Br(prog.LE, lo, hi, ordered)
		b.Mov(tmp, lo)
		b.Mov(lo, hi)
		b.Mov(hi, tmp)
		b.Bind(ordered)
		irTicketLock(b, tailAt(lo), servingAt(lo))
		irTicketLock(b, tailAt(hi), servingAt(hi))
		bf := b.Load(balanceAt(from))
		bt := b.Load(balanceAt(to))
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.Store(balanceAt(from), b.Sub(bf, prog.Imm(1)))
		b.Store(balanceAt(to), b.Add(bt, prog.Imm(1)))
		b.AtomicAddX(servingAt(hi), prog.Imm(1))
		b.AtomicAddX(servingAt(lo), prog.Imm(1))
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// irSemaphoreAcquire takes one permit from the counting semaphore at m
// (the word holds the free permits), waiting while none are free. The wait
// is policy-lowered (AwaitGE on permits >= 1); the decrement is a CAS race
// among however many waiters were resumed, with losers re-waiting — Mesa
// semantics in miniature. Release is a fetch-add of one.
func irSemaphoreAcquire(b *prog.Builder, m prog.Mem) {
	again := b.Here()
	v := b.AtomicLoad(m)
	free := b.Label()
	b.Br(prog.GT, v, prog.Imm(0), free)
	b.AwaitGE(m, prog.Imm(1))
	b.Jmp(again)
	b.Bind(free)
	old := b.AtomicCAS(m, v, b.Sub(v, prog.Imm(1)))
	b.Br(prog.NE, old, v, again)
}

// semaphoreIR is the Semaphore extension: Iters entries into a region the
// semaphore admits a bounded number of holders to, tracking the occupancy
// high-water mark inside the region.
func semaphoreIR(p Params, semV, inside, entered, maxSeen, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	sem := b.GVar(uint64(semV))
	insideM := b.GVar(uint64(inside))
	enteredM := b.GVar(uint64(entered))
	maxSeenM := b.GVar(uint64(maxSeen))
	wg := b.Geom(prog.GeomID)
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		irSemaphoreAcquire(b, sem)
		n := b.Add(b.AtomicAdd(insideM, prog.Imm(1)), prog.Imm(1))
		m := b.AtomicLoad(maxSeenM)
		noBump := b.Label()
		b.Br(prog.LE, n, m, noBump)
		b.AtomicCAS(maxSeenM, m, n)
		b.Bind(noBump)
		b.AtomicAddX(enteredM, prog.Imm(1))
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.AtomicAddX(insideM, prog.Imm(-1))
		b.AtomicAddX(sem, prog.Imm(1))
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// rwLockIR is the RWLock extension over a single-word reader-writer lock
// (0 free, -1 writer held, n>0 n readers held): one round in five writes
// the word pair together under the exclusive lock (CAS 0 -> -1, released by
// exchanging 0), the rest read the pair under the shared lock (wait while a
// writer holds, CAS-race the reader count up, release by adding -1) and
// count torn reads.
func rwLockIR(p Params, lockV, wordA, wordB, writes, torn, barCount mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	lock := b.GVar(uint64(lockV))
	aM := b.GVar(uint64(wordA))
	bM := b.GVar(uint64(wordB))
	writesM := b.GVar(uint64(writes))
	tornM := b.GVar(uint64(torn))
	wg := b.Geom(prog.GeomID)
	irLoop(b, 0, int64(p.Iters), prog.GE, func(i prog.Src) {
		b.Compute(irSkewedWork(b, p, wg, i))
		reader, out := b.Label(), b.Label()
		b.Br(prog.NE, b.Mod(b.Add(wg, i), prog.Imm(5)), prog.Imm(0), reader)
		// Writer: exclusive CAS acquire, update the pair together.
		b.AcquireCAS(lock, prog.Imm(0), prog.Imm(-1))
		x := b.Load(aM)
		b.Compute(prog.Imm(int64(p.CSWork)))
		b.Store(aM, b.Add(x, prog.Imm(1)))
		b.Store(bM, b.Add(x, prog.Imm(1)))
		b.AtomicAddX(writesM, prog.Imm(1))
		b.AtomicExchX(lock, prog.Imm(0))
		b.Jmp(out)
		b.Bind(reader)
		// RWLock.RLock: wait out writers, CAS-race the reader count up.
		again := b.Here()
		v := b.AtomicLoad(lock)
		noWriter := b.Label()
		b.Br(prog.GE, v, prog.Imm(0), noWriter)
		b.AwaitGE(lock, prog.Imm(0))
		b.Jmp(again)
		b.Bind(noWriter)
		old := b.AtomicCAS(lock, v, b.Add(v, prog.Imm(1)))
		b.Br(prog.NE, old, v, again)
		rx := b.Load(aM)
		b.Compute(prog.Imm(int64(p.CSWork / 2)))
		ry := b.Load(bM)
		consistent := b.Label()
		b.Br(prog.EQ, rx, ry, consistent)
		b.AtomicAddX(tornM, prog.Imm(1))
		b.Bind(consistent)
		b.AtomicAddX(lock, prog.Imm(-1))
		b.Bind(out)
	})
	irCentralBarrier(b, b.GVar(uint64(barCount)), 1)
	return b.MustBuild()
}

// HandoffIR is the producer/consumer episode of Figure 6: WG 0 computes
// for work cycles and then sets the flag to 1; every other WG waits for it.
func HandoffIR(flag mem.Addr, work int64) *prog.Program {
	b := prog.NewBuilder()
	v := b.GVar(uint64(flag))
	consumer, end := b.Label(), b.Label()
	b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(0), consumer)
	b.Compute(prog.Imm(work))
	b.AtomicStore(v, prog.Imm(1))
	b.Jmp(end)
	b.Bind(consumer)
	b.AwaitEq(v, prog.Imm(1))
	b.Bind(end)
	return b.MustBuild()
}

// litmusIR lowers a litmus pattern onto the IR: a dispatch chain on the WG
// ID selects the WG's straight-line op segment. The builder is sized from
// the pattern first: the ID read, a branch per WG and the fall-through
// jump, then each segment's ops and closing jump; a label per segment and
// the end; and at most one pool entry per variable.
func litmusIR(l Litmus, vars []mem.Addr) *prog.Program {
	b := prog.NewBuilder()
	b.Grow(2+2*l.NumWGs()+l.NumOps(), 1+l.NumWGs(), len(vars))
	id := b.Geom(prog.GeomID)
	end := b.Label()
	segs := make([]prog.Label, len(l.Progs))
	for wi := range l.Progs {
		segs[wi] = b.Label()
		b.Br(prog.EQ, id, prog.Imm(int64(wi)), segs[wi])
	}
	b.Jmp(end)
	for wi, ops := range l.Progs {
		b.Bind(segs[wi])
		for _, op := range ops {
			switch op.Kind {
			case LitmusAdd:
				b.AtomicAddX(b.GVar(uint64(vars[op.Var])), prog.Imm(1))
			case LitmusSet:
				b.AtomicExchX(b.GVar(uint64(vars[op.Var])), prog.Imm(op.Val))
			case LitmusWaitGE:
				b.AwaitGE(b.GVar(uint64(vars[op.Var])), prog.Imm(op.Val))
			case LitmusWaitEq:
				b.AwaitEq(b.GVar(uint64(vars[op.Var])), prog.Imm(op.Val))
			case LitmusWork:
				b.Compute(prog.Imm(op.Val))
			}
		}
		b.Jmp(end)
	}
	b.Bind(end)
	return b.MustBuild()
}
