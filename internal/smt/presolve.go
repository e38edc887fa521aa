package smt

import (
	"context"

	"canary/internal/guard"
)

// AtomValuer yields model values of guard atoms after a Sat verdict. Both
// *Solver (the live model) and Model (a presolved one) implement it.
type AtomValuer interface {
	ValueAtom(a guard.Atom) (val, ok bool)
}

// Model is a detached satisfying assignment: each atom it holds maps to
// its model value, and an atom it lacks is unconstrained.
type Model map[guard.Atom]bool

// ValueAtom implements AtomValuer.
func (m Model) ValueAtom(a guard.Atom) (val, ok bool) {
	v, ok := m[a]
	return v, ok
}

// Presolve is the pre-Tseitin fast path: constant folding plus unit
// propagation over the aggregated guard formula, consulting the order
// theory only on the propagated unit literals. It returns (verdict, model,
// true) when the formula is decided without building CNF or running the
// CDCL loop, and (Unknown, nil, false) when the full solver is needed.
//
// Both verdicts are exact, never heuristic:
//
//   - Unsat is claimed when propagation folds the formula to ⊥ (unit
//     substitution preserves equivalence), or when the formula folds to ⊤
//     but the forced order literals are themselves theory-inconsistent —
//     every model must satisfy the units, so a cyclic edge set refutes the
//     whole formula.
//   - Sat is claimed only when the formula folds to ⊤ AND the forced order
//     literals are acyclic under the solver's total-order semantics
//     (an atom O_i<O_j assigned false contributes the reverse edge j→i,
//     mirroring ¬(i<j) ⟺ j<i): a topological extension then witnesses a
//     model, with all unassigned atoms free.
//
// The returned Sat model carries exactly the forced units. It is partial —
// downstream schedule reconstruction treats missing atoms as unconstrained,
// the same contract model-free cube-and-conquer verdicts rely on.
func Presolve(pool *guard.Pool, f *guard.Formula) (Result, Model, bool) {
	res, m, ok, _ := PresolveContext(context.Background(), pool, f)
	return res, m, ok
}

// PresolveContext is Presolve with cooperative cancellation: the
// propagate-substitute loop observes ctx once per round and returns
// ctx.Err() promptly when the context is done. A non-nil error always
// accompanies (Unknown, nil, false).
func PresolveContext(ctx context.Context, pool *guard.Pool, f *guard.Formula) (Result, Model, bool, error) {
	asn := guard.NewAssignment(0)
	cur := f
	for {
		if cerr := ctx.Err(); cerr != nil {
			return Unknown, nil, false, cerr
		}
		if cur.IsFalse() {
			return Unsat, nil, true, nil
		}
		if cur.IsTrue() {
			break
		}
		seen, progress, conflict := collectUnits(cur, asn)
		if seen == 0 {
			return Unknown, nil, false, nil
		}
		if conflict {
			return Unsat, nil, true, nil
		}
		if !progress {
			return Unknown, nil, false, nil
		}
		cur = substitute(cur, asn, make(map[*guard.Formula]*guard.Formula))
	}
	if !orderConsistent(pool, asn) {
		return Unsat, nil, true, nil
	}
	if asn.Len() == 0 {
		return Sat, nil, true, nil
	}
	// The map model materializes only on Sat: the propagation rounds above
	// work on the dense assignment alone.
	m := make(Model, asn.Len())
	for _, a := range asn.Assigned() {
		m[a] = asn.Value(a)
	}
	return Sat, m, true, nil
}

// collectUnits folds the literals the formula forces at the top level — f
// itself when it is a literal, or the literal conjuncts of a top-level
// conjunction — into asn. Hash-consed And construction already folds
// complementary literal pairs to ⊥, so one round's literals are
// conflict-free by construction; conflict reports a clash with a literal
// forced in an earlier round. seen counts the literals encountered, and
// progress reports whether any was newly assigned.
func collectUnits(f *guard.Formula, asn *guard.Assignment) (seen int, progress, conflict bool) {
	collect := func(g *guard.Formula) {
		var a guard.Atom
		var v bool
		switch g.Kind() {
		case guard.KVar:
			a, v = g.Atom(), true
		case guard.KNot:
			if sub := g.Subs()[0]; sub.Kind() == guard.KVar {
				a, v = sub.Atom(), false
			}
		}
		if a == 0 {
			return
		}
		seen++
		if old, ok := asn.Get(a); ok {
			if old != v {
				conflict = true
			}
			return
		}
		asn.Set(a, v)
		progress = true
	}
	if f.Kind() == guard.KAnd {
		for _, s := range f.Subs() {
			collect(s)
		}
	} else {
		collect(f)
	}
	return seen, progress, conflict
}

// substitute rewrites f under the partial assignment asn, folding constants
// through the simplifying guard constructors. memo deduplicates shared
// subtrees within one rewrite.
func substitute(f *guard.Formula, asn *guard.Assignment, memo map[*guard.Formula]*guard.Formula) *guard.Formula {
	if out, ok := memo[f]; ok {
		return out
	}
	var out *guard.Formula
	switch f.Kind() {
	case guard.KTrue, guard.KFalse:
		out = f
	case guard.KVar:
		if v, ok := asn.Get(f.Atom()); ok {
			if v {
				out = guard.True()
			} else {
				out = guard.False()
			}
		} else {
			out = f
		}
	case guard.KNot:
		out = guard.Not(substitute(f.Subs()[0], asn, memo))
	case guard.KAnd, guard.KOr:
		subs := make([]*guard.Formula, len(f.Subs()))
		for i, s := range f.Subs() {
			subs[i] = substitute(s, asn, memo)
		}
		if f.Kind() == guard.KAnd {
			out = guard.And(subs...)
		} else {
			out = guard.Or(subs...)
		}
	default:
		out = f
	}
	memo[f] = out
	return out
}

// orderConsistent checks the forced order literals against the theory of a
// strict total execution order: true O_i<O_j contributes edge i→j, false
// contributes the reverse edge j→i (totality), a reflexive true atom is an
// immediate contradiction, and the set is consistent iff the edge graph is
// acyclic.
func orderConsistent(pool *guard.Pool, asn *guard.Assignment) bool {
	adj := make(map[int][]int)
	for _, a := range asn.Assigned() {
		v := asn.Value(a)
		from, to, ok := pool.OrderAtom(a)
		if !ok {
			continue
		}
		if from == to {
			if v {
				return false
			}
			continue
		}
		if !v {
			from, to = to, from
		}
		adj[from] = append(adj[from], to)
	}
	// Iterative 3-color DFS for a directed cycle.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(adj))
	for start := range adj {
		if color[start] != white {
			continue
		}
		type frame struct {
			node int
			next int
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < len(adj[top.node]) {
				n := adj[top.node][top.next]
				top.next++
				switch color[n] {
				case gray:
					return false
				case white:
					color[n] = gray
					stack = append(stack, frame{node: n})
				}
				continue
			}
			color[top.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return true
}
