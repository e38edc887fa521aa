package core

import (
	"canary/internal/bitset"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/slab"
	"canary/internal/vfg"
)

// storeEntry is one reaching store: the store at l is the reaching
// definition under g.
type storeEntry struct {
	l ir.Label
	g *guard.Formula
}

// storeSet is the set of reaching stores of a location, sorted by label —
// the order loads visit them in. A set is never mutated once installed in
// a memState: updates build a new one, so layers and joins share sets
// freely.
type storeSet []storeEntry

// memState is the flow-sensitive address-taken state of Alg. 1: each
// location (a dense vfg.Graph LocIndex — an object field, "" = whole cell)
// maps to the set of stores that may currently define it.
//
// To keep one Alg. 1 sweep linear on the long inlined thread bodies, the
// state is layered: entering a branch pushes an empty delta layer over the
// shared pre-branch base, and the join merges only the objects the branch
// bodies touched back into the base (in place — safe because the lowered
// CFG is structured, so once a join executes, the base has no other
// consumers). An entry in a layer shadows the same object's entries below
// it (writes copy the effective value up first), so the nearest entry on
// the parent chain is always the complete current value.
type memState struct {
	parent *memState
	local  map[int]storeSet // LocIndex → reaching stores; nil until a write
	depth  int
}

// newMemState returns an empty layer over parent, carved from the pass's
// slab.
func (p *passCtx) newMemState(parent *memState) *memState {
	d := 0
	if parent != nil {
		d = parent.depth + 1
	}
	m := append(p.states.Make(1), memState{parent: parent, depth: d})
	return &m[0]
}

// get returns the effective store set of location o (nil when none). The
// result must not be mutated; use set.
func (m *memState) get(o int) storeSet {
	for s := m; s != nil; s = s.parent {
		if e, ok := s.local[o]; ok {
			return e
		}
	}
	return nil
}

// set installs a complete value for o in this layer.
func (m *memState) set(o int, e storeSet) {
	if m.local == nil {
		m.local = make(map[int]storeSet)
	}
	m.local[o] = e
}

// touchedDownTo adds to into every location with an entry strictly below
// base on m's chain.
func (m *memState) touchedDownTo(base *memState, into *bitset.Set) {
	for s := m; s != nil && s != base; s = s.parent {
		for o := range s.local {
			into.Add(o)
		}
	}
}

// commonBase returns the deepest state that is an ancestor-or-self of
// every given state.
func commonBase(states []*memState) *memState {
	if len(states) == 0 {
		return nil
	}
	cur := states[0]
	for _, other := range states[1:] {
		a, b := cur, other
		for a != b {
			if a == nil || b == nil {
				return nil
			}
			if a.depth > b.depth {
				a = a.parent
			} else if b.depth > a.depth {
				b = b.parent
			} else {
				a, b = a.parent, b.parent
			}
		}
		cur = a
	}
	return cur
}

// withStore returns a copy of e with the store at l defining the location
// under g, carved from sl.
func withStore(sl *slab.Slab[storeEntry], e storeSet, l ir.Label, g *guard.Formula) storeSet {
	out := sl.Make(len(e) + 1)
	i := 0
	for i < len(e) && e[i].l < l {
		i++
	}
	out = append(out, e[:i]...)
	out = append(out, storeEntry{l, g})
	if i < len(e) && e[i].l == l {
		i++
	}
	return append(out, e[i:]...)
}

// passEffects is the deferred, ordered mutation log of one Alg. 1 pass.
// Parallel passes never touch the shared points-to graph or the VFG
// directly; they log their writes here, and Build replays the logs
// sequentially in thread-ID order, which makes the resulting VFG
// independent of worker count and scheduling.
type passEffects struct {
	thread    int // the thread whose pass logged the effects
	pts       []ptsOp
	edges     []edgeOp
	objStores []objStoreOp
	filtered  int
}

// ptsOp is one deferred ptsAdd(v, o, g) call.
type ptsOp struct {
	v ir.VarID
	o ir.ObjID
	g *guard.Formula
}

// edgeOp is one deferred VFG edge insertion. Node interning is deferred
// too (VarNode/ObjNode mutate the graph), so the op carries the variable or
// object rather than a NodeID. Every id is narrowed to 32 bits and the
// field is its interned id, which keeps the log compact.
type edgeOp struct {
	guard       *guard.Formula
	from        int32 // an ir.VarID, or an ir.ObjID when fromObj
	to          int32 // an ir.VarID
	store, load int32 // ir.Labels of an indirect edge
	obj, field  int32 // the ir.ObjID and interned field id of an indirect edge
	kind        vfg.EdgeKind
	fromObj     bool
}

// objStoreOp is one deferred Graph.AddObjStore call, at a dense location
// index.
type objStoreOp struct {
	loc int
	ref vfg.StoreRef
}

// passCtx is the isolated state of one Alg. 1 pass: a copy-on-write overlay
// over the shared (frozen-for-the-phase) points-to graph, plus the effect
// log. Same-pass reads see same-pass writes through the overlay exactly as
// the sequential analysis did; cross-thread writes of the same iteration
// land in the next fixpoint round instead, which only defers (never loses)
// propagation.
type passCtx struct {
	b       *Builder
	overlay map[ir.VarID]ptsRow
	eff     passEffects
	swept   int // instructions visited

	// rows, stores and states carve the pass's overlay rows, store sets
	// and memory-state layers.
	rows   slab.Slab[ptsEntry]
	stores slab.Slab[storeEntry]
	states slab.Slab[memState]

	// joinTouched and preds are the per-pass scratch of mergeAtJoin
	// (per-pass, not on the Builder: passes of different threads run
	// concurrently).
	joinTouched *bitset.Set
	preds       []*memState
}

// pts returns the pass-visible guarded points-to set of v.
func (p *passCtx) pts(v ir.VarID) ptsRow {
	if r, ok := p.overlay[v]; ok {
		return r
	}
	return p.b.pts[v]
}

// ptsAdd logs the addition and applies it to the overlay so later
// instructions of the same pass observe it.
func (p *passCtx) ptsAdd(v ir.VarID, o ir.ObjID, g *guard.Formula) {
	if g.IsFalse() {
		return
	}
	p.eff.pts = append(p.eff.pts, ptsOp{v: v, o: o, g: g})
	row, ok := p.overlay[v]
	if !ok {
		base := p.b.pts[v]
		row = append(p.rows.Make(len(base)+1), base...)
	}
	if i, exists := row.find(o); exists {
		row[i].g = p.b.cap(guard.Or(row[i].g, g))
	} else {
		row = p.rows.Insert(row, i, ptsEntry{o, p.b.cap(g)})
	}
	p.overlay[v] = row
}

// addEdge logs a direct or base edge from variable (or object, when
// fromObj) from to variable to.
func (p *passCtx) addEdge(from int, fromObj bool, to ir.VarID, kind vfg.EdgeKind, g *guard.Formula) {
	p.eff.edges = append(p.eff.edges, edgeOp{
		guard: g, from: int32(from), to: int32(to), kind: kind, fromObj: fromObj,
	})
}

// dataDepPass runs one Alg. 1 pass over a thread: a single topological
// sweep of the (acyclic) CFG computing the flow-sensitive address-taken
// state, logging top-level points-to updates and direct/dd edge insertions
// as deferred effects. Passes of different threads only read shared state,
// so Build runs them concurrently inside each fixpoint iteration.
func (b *Builder) dataDepPass(th *ir.Thread) *passCtx {
	p := &passCtx{b: b, overlay: make(map[ir.VarID]ptsRow)}
	p.eff.thread = th.ID
	for _, blk := range th.Blocks {
		p.swept += len(blk.Insts)
	}
	// About one edge and half a fact per instruction: presizing the logs
	// saves regrowing them on the long inlined thread bodies.
	p.eff.edges = make([]edgeOp, 0, p.swept)
	p.eff.pts = make([]ptsOp, 0, p.swept/2)

	// Blocks are created in topological order by the lowerer, so one
	// sweep reaches the intra-thread dataflow fixpoint (the CFG is a DAG).
	// out is indexed by Block.Local; dataDepRound clears it after replay.
	out := b.blockStates(th)
	for bi, blk := range th.Blocks {
		var cur *memState
		switch {
		case len(blk.Preds) == 0:
			cur = p.newMemState(nil)
		case len(blk.Preds) == 1:
			pred := out[blk.Preds[0].Local()]
			if len(blk.Preds[0].Succs) == 1 {
				cur = pred // hand over: no other consumer
			} else {
				cur = p.newMemState(pred) // branch entry: delta layer
			}
		default:
			cur = p.mergeAtJoin(blk, out)
		}
		for _, inst := range blk.Insts {
			p.transfer(inst, cur)
		}
		out[bi] = cur
	}
	return p
}

// applyEffects replays one pass's log against the shared builder state; it
// reports whether any new points-to item or edge appeared (the outer
// fixpoint's progress signal). Replay order — thread-ID order across
// passes, program order within one — fixes the edge-ID assignment and the
// guard join order regardless of how the passes were scheduled. The facts
// are added on behalf of the logging thread, so they dirty every reader
// but that thread (the producer rule of markDirty).
func (b *Builder) applyEffects(eff *passEffects) bool {
	progressed := false
	for i := range eff.pts {
		op := &eff.pts[i]
		if b.ptsAdd(op.v, op.o, op.g, eff.thread) {
			progressed = true
		}
	}
	g := b.G
	for i := range eff.edges {
		e := &eff.edges[i]
		var from vfg.NodeID
		if e.fromObj {
			from = g.ObjNode(ir.ObjID(e.from))
		} else {
			from = g.VarNode(ir.VarID(e.from))
		}
		if g.AddEdge(vfg.Edge{
			From: from, To: g.VarNode(ir.VarID(e.to)),
			Kind: e.kind, Guard: e.guard,
			Store: ir.Label(e.store), Load: ir.Label(e.load), Obj: ir.ObjID(e.obj),
			Field: e.field,
		}) {
			progressed = true
		}
	}
	for i := range eff.objStores {
		so := &eff.objStores[i]
		g.AddObjStoreAt(so.loc, so.ref)
	}
	b.Stats.FilteredEdges += eff.filtered
	return progressed
}

// mergeAtJoin merges the predecessors' delta layers into their common base
// (Alg. 1's may-union with guard disjunction) and returns the base, which
// becomes the join's state.
func (p *passCtx) mergeAtJoin(blk *ir.Block, out []*memState) *memState {
	b := p.b
	preds := p.preds[:0]
	for _, pr := range blk.Preds {
		preds = append(preds, out[pr.Local()])
	}
	p.preds = preds
	base := commonBase(preds)
	if base == nil {
		base = p.newMemState(nil)
	}
	// Locations touched by any branch since the base.
	if p.joinTouched == nil {
		p.joinTouched = bitset.New(b.G.LocCount())
	} else {
		p.joinTouched.Clear()
	}
	for _, pr := range preds {
		pr.touchedDownTo(base, p.joinTouched)
	}
	p.joinTouched.ForEach(func(o int) {
		merged := preds[0].get(o)
		for _, pr := range preds[1:] {
			merged = p.mergeStores(merged, pr.get(o))
		}
		base.set(o, merged)
	})
	return base
}

// mergeStores returns the union of the store sets a and b, walking both in
// label order; a store in both gets its guards joined, a's first.
func (p *passCtx) mergeStores(a, b storeSet) storeSet {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := p.stores.Make(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].l < b[j].l:
			out = append(out, a[i])
			i++
		case b[j].l < a[i].l:
			out = append(out, b[j])
			j++
		default:
			out = append(out, storeEntry{a[i].l, p.b.cap(guard.Or(a[i].g, b[j].g))})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// transfer applies the Alg. 1 flow functions (HandleEachInst) and logs VFG
// edges. It reads shared state only through the pass overlay, so passes of
// different threads can run concurrently.
func (p *passCtx) transfer(inst *ir.Inst, mem *memState) {
	b := p.b
	switch inst.Op {
	case ir.OpAlloc, ir.OpAddr, ir.OpNull:
		// ℓ,φ: p = alloc_o  ⇒  PG_top ← {p ↣ (φ, o)}; base edge o → p.
		p.ptsAdd(inst.Def, inst.Obj, inst.Guard)
		p.addEdge(int(inst.Obj), true, inst.Def, vfg.EdgeObj, inst.Guard)
	case ir.OpCopy:
		// ℓ,φ: p = q  ⇒  PG_top ← {p ↣ (γ∧φ, o)} ∀(γ,o) ∈ Pts(q).
		for _, e := range p.pts(inst.Val) {
			p.ptsAdd(inst.Def, e.o, b.cap(guard.And(e.g, inst.Guard)))
		}
		p.addEdge(int(inst.Val), false, inst.Def, vfg.EdgeDirect, inst.Guard)
	case ir.OpPhi:
		for _, op := range inst.Ops {
			for _, e := range p.pts(op.Var) {
				p.ptsAdd(inst.Def, e.o, b.cap(guard.And(e.g, op.Guard)))
			}
			p.addEdge(int(op.Var), false, inst.Def, vfg.EdgeDirect, op.Guard)
		}
	case ir.OpBin:
		// Value-level flow only (taint propagation); no points-to.
		for _, op := range inst.Ops {
			p.addEdge(int(op.Var), false, inst.Def, vfg.EdgeDirect, inst.Guard)
		}
	case ir.OpStore:
		// ℓ,φ: *x = q (or x.f = q). Strong update when Pts(x) is a
		// singleton; locations are field-sensitive.
		ptsX := p.pts(inst.Ptr)
		strong := len(ptsX) == 1
		field := b.G.FieldID(inst.Field())
		for _, e := range ptsX {
			li := b.G.LocIndexOf(e.o, field)
			gStore := b.cap(guard.And(e.g, inst.Guard))
			if gStore.IsFalse() {
				continue
			}
			var prior storeSet
			if !strong {
				prior = mem.get(li) // a strong update kills IN ∩ Pts(x)
			}
			mem.set(li, withStore(&p.stores, prior, inst.Label, gStore))
			p.eff.objStores = append(p.eff.objStores, objStoreOp{
				loc: li, ref: vfg.StoreRef{Store: inst.Label, Guard: gStore},
			})
		}
	case ir.OpLoad:
		// ℓ,φ: p = *y (or p = y.f). Link reaching stores to the load (dd
		// edges) and propagate the stored values' points-to facts. Reaching
		// stores are visited in label order: several stores feeding one load
		// Or-join into the same points-to guard, and a fixed join order keeps
		// the formula (and everything downstream of it) deterministic.
		field := b.G.FieldID(inst.Field())
		for _, e := range p.pts(inst.Ptr) {
			for _, st := range mem.get(b.G.LocIndexOf(e.o, field)) {
				storeInst := b.Prog.Inst(st.l)
				eg := b.cap(guard.And(st.g, e.g, inst.Guard))
				if eg.IsFalse() {
					p.eff.filtered++
					continue
				}
				p.eff.edges = append(p.eff.edges, edgeOp{
					guard: eg, from: int32(storeInst.Val), to: int32(inst.Def),
					store: int32(st.l), load: int32(inst.Label),
					obj: int32(e.o), field: int32(field), kind: vfg.EdgeDD,
				})
				for _, e2 := range p.pts(storeInst.Val) {
					p.ptsAdd(inst.Def, e2.o, b.cap(guard.And(e2.g, eg)))
				}
			}
		}
	case ir.OpFree, ir.OpDeref, ir.OpLeak:
		// Sources/sinks; no dataflow effect. (free does not kill points-to
		// facts — the dangling pointer is precisely what UAF checking
		// tracks.)
	case ir.OpTaint, ir.OpConst, ir.OpHavoc:
		// Defines a value with no points-to facts (havoc is the documented
		// beyond-depth summary).
	case ir.OpFork, ir.OpJoin, ir.OpLock, ir.OpUnlock, ir.OpWait, ir.OpNotify:
		// Synchronization; handled by MHP/Φ_po and the checker extensions.
	}
}
