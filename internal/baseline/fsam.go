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

// Fsam is the Fsam-like comparator (Sui et al., CGO 2016 profile): a
// flow-sensitive pointer analysis for multithreaded programs. It first runs
// the exhaustive Andersen analysis as an auxiliary (the pre-computed
// thread-aware def-use chains of the original), then computes and — unlike
// Canary — retains per-instruction memory states for the entire program,
// which is where its memory cost comes from (Fig. 7b). Intra-thread
// def-use is flow-sensitive; cross-thread def-use is thread-aware but
// order- and path-insensitive.
type Fsam struct{}

// Name implements Tool.
func (Fsam) Name() string { return "fsam" }

// BuildVFG implements Tool.
func (Fsam) BuildVFG(ctx context.Context, prog *ir.Program) (*Result, error) {
	start := time.Now()
	a, err := andersen.RunAndersen(ctx, prog)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	g := vfg.New(prog)
	res := &Result{G: g}
	res.Stats.PointsToFacts = a.Size()

	// Direct edges, as in Saber.
	for _, inst := range prog.Insts() {
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
		}
	}

	// Per-instruction flow-sensitive memory states, retained for the whole
	// program. state[label] maps each field-sensitive location to the set
	// of reaching store labels.
	type loc struct {
		obj   ir.ObjID
		field string
	}
	type memMap map[loc]map[ir.Label]bool
	states := make(map[ir.Label]memMap, prog.NumInsts())

	cloneInto := func(dst, src memMap) {
		for o, ss := range src {
			d := dst[o]
			if d == nil {
				d = make(map[ir.Label]bool, len(ss))
				dst[o] = d
			}
			for s := range ss {
				d[s] = true
			}
		}
	}

	// Cross-thread stores per location (thread-aware def-use): all stores
	// whose pointer may point to the object, at the matching field.
	objStores := make(map[loc][]*ir.Inst)
	for _, inst := range prog.Insts() {
		if inst.Op == ir.OpStore {
			for o := range a.Pts(inst.Ptr) {
				objStores[loc{o, inst.Field()}] = append(objStores[loc{o, inst.Field()}], inst)
			}
		}
	}

	instsSeen := 0
	for _, th := range prog.Threads {
		// Blocks are topologically ordered; one sweep suffices per thread.
		blockOut := make(map[*ir.Block]memMap)
		for _, blk := range th.Blocks {
			// The retained snapshots grow quadratically; poll the deadline
			// frequently so the harness's timeout fires before memory does.
			instsSeen += len(blk.Insts) + 1
			if instsSeen >= 512 {
				instsSeen = 0
				if cancelled(ctx) {
					return nil, ErrTimeout
				}
			}
			cur := make(memMap)
			for _, pred := range blk.Preds {
				cloneInto(cur, blockOut[pred])
			}
			for _, inst := range blk.Insts {
				// Retain the full IN state per instruction (the deliberate
				// memory cost of exhaustive flow-sensitive analysis).
				snapshot := make(memMap, len(cur))
				cloneInto(snapshot, cur)
				states[inst.Label] = snapshot
				switch inst.Op {
				case ir.OpStore:
					for o := range a.Pts(inst.Ptr) {
						k := loc{o, inst.Field()}
						if len(a.Pts(inst.Ptr)) == 1 {
							delete(cur, k) // strong update
						}
						ss := cur[k]
						if ss == nil {
							ss = make(map[ir.Label]bool, 1)
							cur[k] = ss
						}
						ss[inst.Label] = true
					}
				case ir.OpLoad:
					field := int32(g.FieldID(inst.Field()))
					for o := range a.Pts(inst.Ptr) {
						k := loc{o, inst.Field()}
						// Intra-thread flow-sensitive def-use.
						for s := range cur[k] {
							sInst := prog.Inst(s)
							g.AddEdge(vfg.Edge{From: g.VarNode(sInst.Val), To: g.VarNode(inst.Def),
								Kind: vfg.EdgeDD, Guard: guard.True(),
								Store: s, Load: inst.Label, Obj: o, Field: field})
						}
						// Cross-thread def-use: any store in another thread.
						for _, sInst := range objStores[k] {
							if sInst.Thread == inst.Thread {
								continue
							}
							g.AddEdge(vfg.Edge{From: g.VarNode(sInst.Val), To: g.VarNode(inst.Def),
								Kind: vfg.EdgeInterference, Guard: guard.True(),
								Store: sInst.Label, Load: inst.Label, Obj: o, Field: field})
						}
					}
				}
			}
			blockOut[blk] = cur
		}
	}
	// Keep the retained states alive in the result's accounting (they are
	// what Fig. 7b measures).
	res.Stats.PointsToFacts += len(states)

	counts := g.EdgeCountByKind()
	res.Stats.DirectEdges = counts[vfg.EdgeDirect] + counts[vfg.EdgeObj]
	res.Stats.IndirectEdges = counts[vfg.EdgeDD] + counts[vfg.EdgeInterference]
	res.Stats.BuildTime = time.Since(start)
	return res, nil
}
