package baseline

import (
	"context"
	"fmt"
	"time"

	"canary/internal/andersen"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/vfg"
)

// Saber is the Saber-like comparator (Sui et al., ISSTA 2012 profile): an
// exhaustive Andersen-style flow-insensitive points-to analysis over the
// whole program, then a value-flow graph in which every store may flow to
// every load whose pointers may alias — across all threads and orders,
// which "trivially models thread interference" (§7.1).
type Saber struct{}

// Name implements Tool.
func (Saber) Name() string { return "saber" }

// BuildVFG implements Tool.
func (Saber) BuildVFG(ctx context.Context, prog *ir.Program) (*Result, error) {
	start := time.Now()
	a, err := andersen.RunAndersen(ctx, prog)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	g := vfg.New(prog)
	res := &Result{G: g}
	res.Stats.PointsToFacts = a.Size()

	// Direct edges (flow-insensitive, unguarded).
	var stores, loads []*ir.Inst
	for _, inst := range prog.Insts() {
		if cancelled(ctx) {
			return nil, ErrTimeout
		}
		switch inst.Op {
		case ir.OpAlloc, ir.OpAddr, ir.OpNull:
			g.AddEdge(vfg.Edge{From: g.ObjNode(inst.Obj), To: g.VarNode(inst.Def),
				Kind: vfg.EdgeObj, Guard: guard.True()})
		case ir.OpCopy:
			g.AddEdge(vfg.Edge{From: g.VarNode(inst.Val), To: g.VarNode(inst.Def),
				Kind: vfg.EdgeDirect, Guard: guard.True()})
		case ir.OpPhi, ir.OpBin:
			for _, op := range inst.Ops {
				g.AddEdge(vfg.Edge{From: g.VarNode(op.Var), To: g.VarNode(inst.Def),
					Kind: vfg.EdgeDirect, Guard: guard.True()})
			}
		case ir.OpStore:
			stores = append(stores, inst)
		case ir.OpLoad:
			loads = append(loads, inst)
		}
	}

	// Indirect edges: the exhaustive store × load cross product filtered
	// only by may-alias — no flow, no threads, no guards.
	for _, s := range stores {
		if cancelled(ctx) {
			return nil, ErrTimeout
		}
		for _, l := range loads {
			if s.Field() != l.Field() {
				continue // distinct fields never alias
			}
			if !a.MayAlias(s.Ptr, l.Ptr) {
				continue
			}
			kind := vfg.EdgeDD
			if s.Thread != l.Thread {
				kind = vfg.EdgeInterference
			}
			// Attribute the edge to one witness object for bookkeeping.
			var obj ir.ObjID
			for o := range a.Pts(s.Ptr) {
				if a.Pts(l.Ptr)[o] {
					obj = o
					break
				}
			}
			g.AddEdge(vfg.Edge{From: g.VarNode(s.Val), To: g.VarNode(l.Def),
				Kind: kind, Guard: guard.True(), Store: s.Label, Load: l.Label,
				Obj: obj, Field: int32(g.FieldID(s.Field()))})
		}
	}
	counts := g.EdgeCountByKind()
	res.Stats.DirectEdges = counts[vfg.EdgeDirect] + counts[vfg.EdgeObj]
	res.Stats.IndirectEdges = counts[vfg.EdgeDD] + counts[vfg.EdgeInterference]
	res.Stats.BuildTime = time.Since(start)
	return res, nil
}
