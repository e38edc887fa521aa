package andersen

import (
	"context"

	"canary/internal/ir"
)

// Andersen is an inclusion-based, flow- and context-insensitive points-to
// analysis over the lowered IR: the exhaustive whole-program pointer
// analysis that Saber-style tools run before building their value-flow
// graphs (and that Canary's thread-modular algorithm deliberately avoids,
// §4). Guards and statement order are ignored entirely.
type Andersen struct {
	prog *ir.Program
	// pts maps each variable to its points-to set.
	pts map[ir.VarID]map[ir.ObjID]bool
	// contents maps each field-sensitive location to the set of values
	// stored into it.
	contents map[Loc]map[ir.VarID]bool
}

// Loc is a field-sensitive memory location (Field "" = the whole cell).
type Loc struct {
	Obj   ir.ObjID
	Field string
}

// ErrCancelled is returned when the context deadline fires mid-analysis.
var ErrCancelled = context.Canceled

// RunAndersen solves the inclusion constraints of prog to a fixed point.
// The context is checked between iterations so the evaluation harness can
// enforce timeouts.
func RunAndersen(ctx context.Context, prog *ir.Program) (*Andersen, error) {
	a := &Andersen{
		prog:     prog,
		pts:      make(map[ir.VarID]map[ir.ObjID]bool),
		contents: make(map[Loc]map[ir.VarID]bool),
	}
	// Copy edges: subset constraints src ⊆ dst.
	type copyEdge struct{ src, dst ir.VarID }
	var copies []copyEdge
	var stores, loads []*ir.Inst
	for _, inst := range prog.Insts() {
		switch inst.Op {
		case ir.OpAlloc, ir.OpAddr, ir.OpNull:
			a.addPts(inst.Def, inst.Obj)
		case ir.OpCopy:
			copies = append(copies, copyEdge{inst.Val, inst.Def})
		case ir.OpPhi:
			for _, op := range inst.Ops {
				copies = append(copies, copyEdge{op.Var, inst.Def})
			}
		case ir.OpStore:
			stores = append(stores, inst)
		case ir.OpLoad:
			loads = append(loads, inst)
		}
	}
	// Naive iterate-to-fixpoint solver (the cubic closure): deliberately
	// exhaustive, matching the baseline's cost profile.
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		changed := false
		for _, c := range copies {
			if a.include(c.src, c.dst) {
				changed = true
			}
		}
		for _, s := range stores {
			for o := range a.pts[s.Ptr] {
				if a.addContent(Loc{Obj: o, Field: s.Field()}, s.Val) {
					changed = true
				}
			}
		}
		for _, l := range loads {
			for o := range a.pts[l.Ptr] {
				for v := range a.contents[Loc{Obj: o, Field: l.Field()}] {
					if a.include(v, l.Def) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return a, nil
		}
	}
}

func (a *Andersen) addPts(v ir.VarID, o ir.ObjID) bool {
	m := a.pts[v]
	if m == nil {
		m = make(map[ir.ObjID]bool)
		a.pts[v] = m
	}
	if m[o] {
		return false
	}
	m[o] = true
	return true
}

func (a *Andersen) addContent(l Loc, v ir.VarID) bool {
	m := a.contents[l]
	if m == nil {
		m = make(map[ir.VarID]bool)
		a.contents[l] = m
	}
	if m[v] {
		return false
	}
	m[v] = true
	return true
}

// include propagates pts(src) into pts(dst); reports change.
func (a *Andersen) include(src, dst ir.VarID) bool {
	changed := false
	for o := range a.pts[src] {
		if a.addPts(dst, o) {
			changed = true
		}
	}
	return changed
}

// Pts returns the points-to set of v (never nil; may be empty).
func (a *Andersen) Pts(v ir.VarID) map[ir.ObjID]bool {
	if m := a.pts[v]; m != nil {
		return m
	}
	return map[ir.ObjID]bool{}
}

// MayAlias reports whether two pointers may point to a common object.
func (a *Andersen) MayAlias(x, y ir.VarID) bool {
	px, py := a.pts[x], a.pts[y]
	if len(px) > len(py) {
		px, py = py, px
	}
	for o := range px {
		if py[o] {
			return true
		}
	}
	return false
}

// Size returns the total number of (var, obj) points-to facts.
func (a *Andersen) Size() int {
	n := 0
	for _, m := range a.pts {
		n += len(m)
	}
	return n
}
