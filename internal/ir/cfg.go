package ir

import (
	"fmt"
	"slices"
)

// Finalize computes the derived CFG information the analyses need:
// per-instruction block indices, per-thread block numbering, must-held lock
// sets, the per-mutex unlock index, and the reachability cache. Lower calls
// it automatically.
//
// The order queries rely on one invariant of the lowerer: it creates every
// block after the blocks that branch into it, so each thread's Blocks slice
// is a topological order of its CFG and every successor edge goes forward.
// Finalize checks that in O(edges) and panics when it breaks — a lowering
// bug, which the pipeline runner reports as an internal error rather than
// letting reachability answer wrong.
func (p *Program) Finalize() {
	p.blockIndex = make([]int32, len(p.insts))
	for _, th := range p.Threads {
		for li, b := range th.Blocks {
			b.local = li
			for idx, in := range b.Insts {
				p.blockIndex[in.Label] = int32(idx)
			}
		}
	}
	for _, th := range p.Threads {
		for _, b := range th.Blocks {
			for _, s := range b.Succs {
				if s.Thread != b.Thread || s.local <= b.local {
					panic(fmt.Sprintf("ir: block order invariant broken in thread %d: edge b%d (#%d) -> b%d (#%d, thread %d) does not go forward",
						th.ID, b.ID, b.local, s.ID, s.local, s.Thread))
				}
			}
		}
	}
	p.unlocks = make(map[unlockKey][]Label)
	for _, in := range p.insts {
		if in.Op == OpUnlock {
			k := unlockKey{in.Thread, in.Mutex()}
			p.unlocks[k] = append(p.unlocks[k], in.Label)
		}
	}
	p.reach = make(map[*Block][]uint64)
	p.computeLockSets()
}

func (p *Program) computeLockSets() {
	p.lockSets = [][]HeldLock{nil}
	for _, th := range p.Threads {
		p.lockSetsForThread(th)
	}
}

// lockSetsForThread computes the must-held locks of every instruction in
// one forward pass: lock() adds, unlock() removes, and a block's entry set
// is the meet of its reached predecessors' exit sets — their intersection,
// where a lock differing in acquisition site across paths is dropped too.
// Blocks is a topological order (Finalize checked it), so predecessors are
// settled first, and a block no predecessor reached is unreachable and
// keeps the empty set. A set is a name-sorted []HeldLock in the program's
// table, never written once built, so instructions share its index until a
// lock, an unlock or a narrowing meet. The lock/unlock order extension (§9
// future work 1) uses the sets to add mutual-exclusion constraints.
func (p *Program) lockSetsForThread(th *Thread) {
	if th.Entry == nil {
		return
	}
	exit := make([]LockSetID, len(th.Blocks))
	reached := make([]bool, len(th.Blocks))
	for _, b := range th.Blocks[th.Entry.local:] {
		var cur LockSetID
		for _, pr := range b.Preds {
			switch {
			case !reached[pr.local]:
			case !reached[b.local]:
				cur, reached[b.local] = exit[pr.local], true
			default:
				cur = p.meetLocks(cur, exit[pr.local])
			}
		}
		if b != th.Entry && !reached[b.local] {
			continue
		}
		reached[b.local] = true
		for _, i := range b.Insts {
			i.Locks = cur
			if i.Op == OpLock || i.Op == OpUnlock {
				cur = p.addLockSet(afterLockOp(p.lockSets[cur], i))
			}
		}
		exit[b.local] = cur
	}
}

// addLockSet enters a new set in the table.
func (p *Program) addLockSet(set []HeldLock) LockSetID {
	if len(set) == 0 {
		return 0
	}
	p.lockSets = append(p.lockSets, set)
	return LockSetID(len(p.lockSets) - 1)
}

// meetLocks intersects two lock sets, returning a or b itself when the
// intersection equals it.
func (p *Program) meetLocks(a, b LockSetID) LockSetID {
	if a == b {
		return a
	}
	sa, sb := p.lockSets[a], p.lockSets[b]
	var out []HeldLock
	for _, h := range sa {
		if slices.Contains(sb, h) {
			out = append(out, h)
		}
	}
	switch len(out) {
	case len(sa):
		return a
	case len(sb):
		return b
	}
	return p.addLockSet(out)
}

// afterLockOp returns a new set: cur after the lock or unlock i.
func afterLockOp(cur []HeldLock, i *Inst) []HeldLock {
	var out []HeldLock
	placed := i.Op == OpUnlock
	for _, h := range cur {
		if !placed && i.Name < h.Name {
			out, placed = append(out, HeldLock{Name: i.Name, Acquire: i.Label}), true
		}
		if h.Name != i.Name {
			out = append(out, h)
		}
	}
	if !placed {
		out = append(out, HeldLock{Name: i.Name, Acquire: i.Label})
	}
	return out
}

// Reaches reports whether there is a valid intra-thread control-flow path
// from l1 to l2 (exclusive: l1 strictly before l2 on some path). Both labels
// must belong to the same thread; otherwise it returns false.
func (p *Program) Reaches(l1, l2 Label) bool {
	i1, i2 := p.insts[l1], p.insts[l2]
	if i1.Thread != i2.Thread {
		return false
	}
	if i1.Block == i2.Block {
		return p.blockIndex[l1] < p.blockIndex[l2]
	}
	return p.blockReaches(i1.Block, i2.Block)
}

// IndexInBlock returns the position of the instruction at l within its
// block (set by Finalize).
func (p *Program) IndexInBlock(l Label) int { return int(p.blockIndex[l]) }

// Local returns the block's index within its thread's Blocks slice, which
// is a topological order of the thread's CFG (set by Finalize).
func (b *Block) Local() int { return b.local }

// blockReaches reports CFG reachability between distinct blocks of one
// thread, memoized as bitsets over the thread's local block numbering.
// Blocks are numbered in topological order, so nothing at or before from
// is reachable from it.
func (p *Program) blockReaches(from, to *Block) bool {
	if to.local <= from.local {
		return false
	}
	p.reachMu.Lock()
	bits, ok := p.reach[from]
	p.reachMu.Unlock()
	if !ok {
		bits = p.computeReach(from)
		p.reachMu.Lock()
		p.reach[from] = bits
		p.reachMu.Unlock()
	}
	return bits[to.local/64]&(1<<(to.local%64)) != 0
}

// computeReach sweeps the blocks after from in topological order: a block
// is reachable once a reachable predecessor (or from itself) has marked it,
// and every edge points forward, so one pass settles every block.
func (p *Program) computeReach(from *Block) []uint64 {
	blocks := p.Threads[from.Thread].Blocks
	bits := make([]uint64, (len(blocks)+63)/64)
	mark := func(b *Block) {
		for _, s := range b.Succs {
			bits[s.local/64] |= 1 << (s.local % 64)
		}
	}
	mark(from)
	for _, b := range blocks[from.local+1:] {
		if bits[b.local/64]&(1<<(b.local%64)) != 0 {
			mark(b)
		}
	}
	return bits
}

// Ancestors returns the chain of thread ids from t up to the main thread
// (inclusive of t).
func (p *Program) Ancestors(t int) []int {
	var out []int
	for t >= 0 {
		out = append(out, t)
		t = p.Threads[t].Parent
	}
	return out
}

// CommonLocks returns, for every lock must-held by both instructions, the
// pair of held-lock records (a's and b's acquisition sites).
func (p *Program) CommonLocks(a, b *Inst) [][2]HeldLock {
	var out [][2]HeldLock
	for _, la := range p.Locks(a) {
		for _, lb := range p.Locks(b) {
			if la.Name == lb.Name {
				out = append(out, [2]HeldLock{la, lb})
			}
		}
	}
	return out
}

// MatchingUnlock returns the unique unlock instruction of mutex m reachable
// from the acquisition at acq within the same thread, or NoLabel when there
// is no unlock or more than one (in which case the caller should skip the
// mutual-exclusion encoding — a sound under-constraining).
func (p *Program) MatchingUnlock(acq Label, m string) Label {
	found := NoLabel
	for _, u := range p.unlocks[unlockKey{p.insts[acq].Thread, m}] {
		if p.Reaches(acq, u) {
			if found != NoLabel {
				return NoLabel // ambiguous
			}
			found = u
		}
	}
	return found
}
