package guard

import (
	"fmt"
	"testing"
)

// maxGuardAllocs is the allocation ceiling of one guard construction: the
// string-keyed representation before the integer-keyed interner sat at
// about 43 allocs/op.
const maxGuardAllocs = 40

// TestGuardConstructAllocs bounds the allocations of building one batch of
// alias-guard shapes (the Φ_alias conjunctions the interference pass
// constructs per candidate pair) over a small atom universe. After a
// warm-up most constructions are hash-cons hits, the steady state of a
// real build.
func TestGuardConstructAllocs(t *testing.T) {
	pool := NewPool()
	bools := make([]Atom, 16)
	for i := range bools {
		bools[i] = pool.Bool(fmt.Sprintf("θ%d", i))
	}
	orders := make([]Atom, 8)
	for i := range orders {
		orders[i] = pool.Order(i, i+1)
	}
	i := uint32(0)
	op := func() {
		i++
		x := i * 2654435761
		a := Var(bools[x%uint32(len(bools))])
		b := Var(bools[(x>>7)%uint32(len(bools))])
		c := Var(bools[(x>>14)%uint32(len(bools))])
		o := Var(orders[(x>>21)%uint32(len(orders))])
		benchSink = And(Or(a, Not(b)), And(c, o), Not(And(a, Not(c))))
	}
	allocs := testing.AllocsPerRun(4000, op)
	t.Logf("guard construction: %.0f allocs/op", allocs)
	if allocs > maxGuardAllocs {
		t.Errorf("guard construction makes %.0f allocs/op, ceiling %d", allocs, maxGuardAllocs)
	}
}
