// Package mhp implements the may-happen-in-parallel analysis Canary uses to
// prune non-interfering load/store pairs before the interference-dependence
// analysis (PLDI 2021, §6): if a load and a store cannot execute
// concurrently, they cannot share an interference dependence (Defn. 1), so
// Alg. 2 need not consider the pair.
//
// The analysis exploits the fork/join structure of the bounded thread tree.
// Because the lowered CFGs are acyclic (loops are unrolled) and every label
// executes at most once, intra-thread "may reach" coincides with "always
// ordered when both execute", which keeps the rules simple and sound:
//
//   - statements of the same thread never run in parallel;
//   - a statement of an ancestor thread ordered before the fork of the
//     descendant's subtree (or after its join) is not parallel with the
//     descendant;
//   - statements of unrelated threads are not parallel when one subtree's
//     join is ordered before the other's fork in their lowest common
//     ancestor.
package mhp

import "canary/internal/ir"

// Info answers MHP queries for one program.
//
// Cross-thread order reduces to one question about the fork and join sites
// of the thread tree: does a label reach a site, or a site reach a label,
// inside the thread that holds the site? Analyze answers it for every block
// at once, with two per-block bitsets for each thread that holds sites, so
// a query costs a bit test instead of a CFG sweep:
//
//   - ahead[T], row b: the threads whose fork site lies in a block of T
//     reachable from b (b itself included);
//   - behind[T], row b: the threads whose join site lies in a block of T
//     that reaches b (b itself included).
//
// A site in the query label's own block is ordered by position instead.
// The rows cost O(blocks × sites/64) words per program.
type Info struct {
	prog  *ir.Program
	depth []int // thread-tree depth per thread id
	// forkCol and joinCol give each thread its bit column among the fork
	// (join) sites held by the site's thread; -1 when it has no such site.
	forkCol, joinCol []int
	ahead, behind    []siteRows // indexed by the thread holding the sites
}

// siteRows is one bitset row per block of a thread, words words each.
type siteRows struct {
	words int
	bits  []uint64
}

func (r *siteRows) set(block, col int) { r.bits[block*r.words+col/64] |= 1 << (col % 64) }

func (r *siteRows) has(block, col int) bool {
	return r.bits[block*r.words+col/64]&(1<<(col%64)) != 0
}

// or joins row from into row into.
func (r *siteRows) or(into, from int) {
	dst := r.bits[into*r.words : (into+1)*r.words]
	for i, w := range r.bits[from*r.words : (from+1)*r.words] {
		dst[i] |= w
	}
}

// Analyze precomputes the thread-tree structure of prog and the per-block
// site bitsets: one backward sweep per thread for the fork sites and one
// forward sweep for the join sites, both in the topological block order
// Finalize guarantees.
func Analyze(prog *ir.Program) *Info {
	n := len(prog.Threads)
	m := &Info{
		prog:    prog,
		depth:   make([]int, n),
		forkCol: make([]int, n),
		joinCol: make([]int, n),
		ahead:   make([]siteRows, n),
		behind:  make([]siteRows, n),
	}
	forks := make([]int, n) // fork sites held per thread
	joins := make([]int, n)
	column := func(site ir.Label, count []int) int {
		if site == ir.NoLabel {
			return -1
		}
		holder := prog.Inst(site).Thread
		count[holder]++
		return count[holder] - 1
	}
	for _, t := range prog.Threads {
		d := 0
		for p := t.Parent; p >= 0; p = prog.Threads[p].Parent {
			d++
		}
		m.depth[t.ID] = d
		m.forkCol[t.ID] = column(t.ForkSite, forks)
		m.joinCol[t.ID] = column(t.JoinSite, joins)
	}
	newRows := func(holder, cols int) siteRows {
		w := (cols + 63) / 64
		return siteRows{words: w, bits: make([]uint64, w*len(prog.Threads[holder].Blocks))}
	}
	for _, th := range prog.Threads {
		if forks[th.ID] > 0 {
			m.ahead[th.ID] = newRows(th.ID, forks[th.ID])
		}
		if joins[th.ID] > 0 {
			m.behind[th.ID] = newRows(th.ID, joins[th.ID])
		}
	}
	for _, t := range prog.Threads {
		if c := m.forkCol[t.ID]; c >= 0 {
			in := prog.Inst(t.ForkSite)
			m.ahead[in.Thread].set(in.Block.Local(), c)
		}
		if c := m.joinCol[t.ID]; c >= 0 {
			in := prog.Inst(t.JoinSite)
			m.behind[in.Thread].set(in.Block.Local(), c)
		}
	}
	for _, th := range prog.Threads {
		if r := &m.ahead[th.ID]; r.words > 0 {
			for i := len(th.Blocks) - 1; i >= 0; i-- {
				for _, s := range th.Blocks[i].Succs {
					r.or(i, s.Local())
				}
			}
		}
		if r := &m.behind[th.ID]; r.words > 0 {
			for i, b := range th.Blocks {
				for _, s := range b.Succs {
					r.or(s.Local(), i)
				}
			}
		}
	}
	return m
}

// MHP reports whether the instructions at l1 and l2 may execute in
// parallel: they belong to different threads and the fork/join structure
// imposes no order between them.
func (m *Info) MHP(l1, l2 ir.Label) bool {
	if m.prog.Inst(l1).Thread == m.prog.Inst(l2).Thread {
		return false
	}
	return m.Ordered(l1, l2) == 0
}

// Ordered reports the program order <_P between two labels: -1 when l1 is
// ordered before l2 on every execution in which both run, +1 for the
// reverse, and 0 when the program imposes no order. Same-thread queries use
// CFG reachability (sound because bounded CFGs are acyclic); cross-thread
// queries use the fork/join synchronization semantics of §5.1.
func (m *Info) Ordered(l1, l2 ir.Label) int {
	t1 := int(m.prog.Inst(l1).Thread)
	t2 := int(m.prog.Inst(l2).Thread)
	if t1 == t2 {
		switch {
		case l1 == l2:
			return 0
		case m.prog.Reaches(l1, l2):
			return -1
		case m.prog.Reaches(l2, l1):
			return 1
		}
		return 0
	}
	// Ancestor/descendant: order the ancestor's statement against the
	// fork/join window of the descendant's subtree.
	if c, ok := m.childToward(t1, t2); ok {
		return m.windowOrder(l1, c)
	}
	if c, ok := m.childToward(t2, t1); ok {
		return -m.windowOrder(l2, c)
	}
	// Unrelated threads: compare the two subtree windows in the LCA.
	lca, c1, c2 := m.lca(t1, t2)
	if lca < 0 {
		return 0 // defensive: disconnected threads are unordered
	}
	return m.siblingOrder(c1, c2)
}

// siblingOrder orders the subtrees of two children of one thread: -1 when
// c1's join is ordered before (or is) c2's fork, +1 for the reverse, 0
// when the windows may overlap.
func (m *Info) siblingOrder(c1, c2 int) int {
	if m.afterJoin(m.prog.Threads[c2].ForkSite, c1) {
		return -1
	}
	if m.afterJoin(m.prog.Threads[c1].ForkSite, c2) {
		return 1
	}
	return 0
}

// windowOrder orders label l (in an ancestor thread) against the subtree
// rooted at thread c: -1 when l precedes the whole subtree, +1 when it
// follows it, 0 when they may interleave.
func (m *Info) windowOrder(l ir.Label, c int) int {
	// Before (or at) the fork: strictly ordered before the whole subtree.
	if m.beforeFork(l, c) {
		return -1
	}
	// After (or at) the join: strictly ordered after the whole subtree.
	if m.afterJoin(l, c) {
		return 1
	}
	return 0
}

// beforeFork reports whether l is thread c's fork site or reaches it
// within the thread that holds it.
func (m *Info) beforeFork(l ir.Label, c int) bool {
	site := m.prog.Threads[c].ForkSite
	if l == site {
		return true
	}
	li, si := m.prog.Inst(l), m.prog.Inst(site)
	switch {
	case li.Thread != si.Thread:
		return false
	case li.Block == si.Block:
		return m.prog.IndexInBlock(l) < m.prog.IndexInBlock(site)
	}
	return m.ahead[li.Thread].has(li.Block.Local(), m.forkCol[c])
}

// afterJoin reports whether thread c is joined and l is its join site or
// is reached from it within the thread that holds it.
func (m *Info) afterJoin(l ir.Label, c int) bool {
	site := m.prog.Threads[c].JoinSite
	if site == ir.NoLabel {
		return false
	}
	if l == site {
		return true
	}
	li, si := m.prog.Inst(l), m.prog.Inst(site)
	switch {
	case li.Thread != si.Thread:
		return false
	case li.Block == si.Block:
		return m.prog.IndexInBlock(site) < m.prog.IndexInBlock(l)
	}
	return m.behind[li.Thread].has(li.Block.Local(), m.joinCol[c])
}

// childToward returns the child of anc on the thread-tree path down to
// desc, and whether anc is a proper ancestor of desc.
func (m *Info) childToward(anc, desc int) (int, bool) {
	cur := desc
	for cur >= 0 {
		p := m.prog.Threads[cur].Parent
		if p == anc {
			return cur, true
		}
		cur = p
	}
	return -1, false
}

// lca returns the lowest common ancestor of t1 and t2 together with the
// children of the LCA on the paths toward t1 and t2.
func (m *Info) lca(t1, t2 int) (lca, c1, c2 int) {
	a, b := t1, t2
	for m.depth[a] > m.depth[b] {
		a = m.prog.Threads[a].Parent
	}
	for m.depth[b] > m.depth[a] {
		b = m.prog.Threads[b].Parent
	}
	for a != b {
		if m.prog.Threads[a].Parent < 0 || m.prog.Threads[b].Parent < 0 {
			return -1, -1, -1
		}
		a = m.prog.Threads[a].Parent
		b = m.prog.Threads[b].Parent
	}
	// a == b is the LCA; find the children toward each side.
	c1, _ = m.childTowardFrom(a, t1)
	c2, _ = m.childTowardFrom(a, t2)
	return a, c1, c2
}

func (m *Info) childTowardFrom(anc, desc int) (int, bool) {
	return m.childToward(anc, desc)
}
