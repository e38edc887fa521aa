// Package baseline reimplements the two comparison tools of the paper's
// evaluation (§7) over the same IR and VFG substrate as Canary:
//
//   - Saber-like: an Andersen-style, flow-insensitive exhaustive points-to
//     analysis that "trivially models thread interference" (every store may
//     flow to every aliasing load, regardless of threads or order),
//     followed by path-insensitive source–sink reachability checking.
//
//   - Fsam-like: an Andersen-style, flow-sensitive pointer analysis for
//     multithreaded programs that keeps per-instruction memory states for
//     the whole program (the memory cost the paper measures) and follows
//     thread-aware def-use chains, still without path or order reasoning.
//
// Both produce a vfg.Graph and a plain reachability bug report list, so the
// evaluation harness can compare construction cost (Fig. 7) and report
// precision (Table 1) under identical conditions.
package baseline

import (
	"context"
	"errors"
	"time"

	"canary/internal/ir"
	"canary/internal/vfg"
)

// ErrTimeout is returned when a tool exceeds its deadline (the "NA" entries
// of the paper's Table 1 and the timeout bars of Fig. 7).
var ErrTimeout = errors.New("baseline: analysis timed out")

// Result is the outcome of a baseline VFG construction.
type Result struct {
	G     *vfg.Graph
	Stats Stats
}

// Stats describes construction cost.
type Stats struct {
	PointsToFacts int
	DirectEdges   int
	IndirectEdges int
	BuildTime     time.Duration
}

// Tool is a VFG-building analysis (Canary's comparators).
type Tool interface {
	Name() string
	// BuildVFG constructs the tool's value-flow graph; it returns
	// ErrTimeout (wrapped) if ctx expires first.
	BuildVFG(ctx context.Context, prog *ir.Program) (*Result, error)
}

// NaiveReport is a path-insensitive source–sink report: no guards, no
// order constraints — just graph reachability. This is how the baselines
// check bugs, and why their report counts explode in Table 1.
type NaiveReport struct {
	Kind   string
	Source ir.Label
	Sink   ir.Label
}

// CheckReachability runs the plain source–sink reachability checking used
// by both baselines: a report for every (source, sink) pair connected in
// the graph. kind selects the property using the same source/sink
// conventions as the core checkers.
func CheckReachability(g *vfg.Graph, kind string) []NaiveReport {
	prog := g.Prog
	type src struct {
		node  vfg.NodeID
		label ir.Label
	}
	var sources []src
	sinks := make(map[ir.VarID][]ir.Label)
	for _, inst := range prog.Insts() {
		switch kind {
		case "use-after-free":
			if inst.Op == ir.OpFree {
				sources = append(sources, src{g.VarNode(inst.Val), inst.Label})
			}
			if inst.Op == ir.OpDeref {
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		case "double-free":
			if inst.Op == ir.OpFree {
				sources = append(sources, src{g.VarNode(inst.Val), inst.Label})
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		case "null-deref":
			if inst.Op == ir.OpNull {
				sources = append(sources, src{g.VarNode(inst.Def), inst.Label})
			}
			if inst.Op == ir.OpDeref {
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		case "taint-leak":
			if inst.Op == ir.OpTaint {
				sources = append(sources, src{g.VarNode(inst.Def), inst.Label})
			}
			if inst.Op == ir.OpLeak {
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		}
	}
	var out []NaiveReport
	seen := make(map[[2]ir.Label]bool)
	for _, s := range sources {
		reach := reachableFrom(g, s.node)
		for n := range reach {
			node := g.Node(n)
			if node.Kind != vfg.NodeVar {
				continue
			}
			for _, sinkLabel := range sinks[node.Var()] {
				if sinkLabel == s.label {
					continue
				}
				key := [2]ir.Label{s.label, sinkLabel}
				if kind == "double-free" && key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, NaiveReport{Kind: kind, Source: s.label, Sink: sinkLabel})
			}
		}
	}
	return out
}

func reachableFrom(g *vfg.Graph, start vfg.NodeID) map[vfg.NodeID]bool {
	seen := map[vfg.NodeID]bool{start: true}
	stack := []vfg.NodeID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.Out(n) {
			to := g.Edge(eid).To
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

// cancelled reports whether ctx has expired.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
