package ir

import (
	"fmt"
	"sort"
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
	p.blockIndex = make([]int, len(p.insts))
	for _, th := range p.Threads {
		for li, b := range th.Blocks {
			b.local = li
			for idx, in := range b.Insts {
				p.blockIndex[in.Label] = idx
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
			k := unlockKey{in.Thread, in.Mutex}
			p.unlocks[k] = append(p.unlocks[k], in.Label)
		}
	}
	p.reach = make(map[*Block][]uint64)
	p.computeLockSets()
}

func (p *Program) computeLockSets() {
	for _, th := range p.Threads {
		p.lockSetsForThread(th)
	}
}

// lockSetsForThread runs a forward must-analysis of held locks over the
// thread CFG: the meet at a join is set intersection (a lock differing in
// acquisition site across paths is dropped too), lock() adds, unlock()
// removes. Each instruction then records the must-held set, which the
// lock/unlock order extension (§9 future work 1) uses to add
// mutual-exclusion constraints.
func (p *Program) lockSetsForThread(th *Thread) {
	n := len(th.Blocks)
	if n == 0 {
		return
	}
	in := make([]map[string]Label, n)
	out := make([]map[string]Label, n)
	// nil means "top" (not yet computed), distinct from the empty set.
	worklist := []*Block{th.Entry}
	in[th.Entry.local] = map[string]Label{}
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		cur := copySet(in[b.local])
		for _, i := range b.Insts {
			i.Locks = setToSorted(cur)
			switch i.Op {
			case OpLock:
				cur[i.Mutex] = i.Label
			case OpUnlock:
				delete(cur, i.Mutex)
			}
		}
		if equalSet(out[b.local], cur) {
			continue
		}
		out[b.local] = cur
		for _, s := range b.Succs {
			var merged map[string]Label
			if in[s.local] == nil {
				merged = copySet(cur)
			} else {
				merged = intersect(in[s.local], cur)
				if equalSet(merged, in[s.local]) {
					continue
				}
			}
			in[s.local] = merged
			worklist = append(worklist, s)
		}
	}
}

func copySet(s map[string]Label) map[string]Label {
	out := make(map[string]Label, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func intersect(a, b map[string]Label) map[string]Label {
	out := make(map[string]Label)
	for k, v := range a {
		if bv, ok := b[k]; ok && bv == v {
			out[k] = v
		}
	}
	return out
}

func equalSet(a, b map[string]Label) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func setToSorted(s map[string]Label) []HeldLock {
	if len(s) == 0 {
		return nil
	}
	out := make([]HeldLock, 0, len(s))
	for k, v := range s {
		out = append(out, HeldLock{Name: k, Acquire: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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

// Frees returns the labels of all free instructions.
func (p *Program) Frees() []Label { return p.labelsOf(OpFree) }

// Derefs returns the labels of all dereference-sink instructions.
func (p *Program) Derefs() []Label { return p.labelsOf(OpDeref) }

// Leaks returns the labels of all information-leak sinks.
func (p *Program) Leaks() []Label { return p.labelsOf(OpLeak) }

// Taints returns the labels of all taint sources.
func (p *Program) Taints() []Label { return p.labelsOf(OpTaint) }

// Nulls returns the labels of all null-constant definitions.
func (p *Program) Nulls() []Label { return p.labelsOf(OpNull) }

// Stores returns the labels of all store instructions.
func (p *Program) Stores() []Label { return p.labelsOf(OpStore) }

// Loads returns the labels of all load instructions.
func (p *Program) Loads() []Label { return p.labelsOf(OpLoad) }

func (p *Program) labelsOf(op Op) []Label {
	var out []Label
	for _, i := range p.insts {
		if i.Op == op {
			out = append(out, i.Label)
		}
	}
	return out
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

// HoldsLock reports whether inst must hold the named lock.
func (i *Inst) HoldsLock(m string) bool {
	for _, l := range i.Locks {
		if l.Name == m {
			return true
		}
	}
	return false
}

// CommonLocks returns, for every lock must-held by both instructions, the
// pair of held-lock records (a's and b's acquisition sites).
func CommonLocks(a, b *Inst) [][2]HeldLock {
	var out [][2]HeldLock
	for _, la := range a.Locks {
		for _, lb := range b.Locks {
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
