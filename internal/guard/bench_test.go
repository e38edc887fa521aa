package guard

import (
	"sync"
	"testing"
)

// benchSink defeats dead-code elimination of benchmark loop bodies.
var benchSink *Formula

// internOp builds one moderately nested guard over a small atom universe —
// the shape lowering and checking intern constantly. The LCG walk makes
// successive calls produce overlapping but not identical structures, so the
// loop exercises both the hit and the miss path of the interner.
func internOp(x uint32) *Formula {
	var lits [8]*Formula
	for j := range lits {
		f := Var(Atom(x%16 + 1))
		if x&(1<<8) != 0 {
			f = Not(f)
		}
		lits[j] = f
		x = x*1664525 + 1013904223
	}
	return Or(
		And(lits[0], lits[1], lits[2], lits[3]),
		And(lits[4], lits[5], lits[6], lits[7]),
	)
}

// BenchmarkGuardIntern measures the steady-state cost of hash-consed guard
// construction: after the first pass every structure is interned, so the
// measured rounds run the integer-keyed hit path. allocs/op is the series
// to watch — the open-addressed table keeps it near zero.
func BenchmarkGuardIntern(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < 256; i++ { // warm the table: measure the hit path
		benchSink = internOp(uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = internOp(uint32(i % 256))
	}
}

// BenchmarkEvalAll measures the batched assignment-slice evaluator against
// a fixed guard batch — the replacement for building a map[Atom]bool per
// evaluation.
func BenchmarkEvalAll(b *testing.B) {
	b.ReportAllocs()
	fs := make([]*Formula, 64)
	for i := range fs {
		fs[i] = internOp(uint32(i))
	}
	asn := NewAssignment(16)
	for a := Atom(1); a <= 16; a++ {
		asn.Set(a, a%3 == 0)
	}
	dst := make([]bool, 0, len(fs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EvalAll(fs, asn, dst[:0])
	}
	if len(dst) != len(fs) {
		b.Fatal("EvalAll dropped results")
	}
}

// TestInternConcurrentIdentity hammers the sharded interner from parallel
// goroutines building the same formula sequence and asserts pointer
// identity across all of them — the property every cache key in the system
// (the Tseitin memo, ir.Digest's guard table) depends on. The sequence stays far below
// the per-shard epoch-flush cap, so no flush can legitimize a mismatch.
func TestInternConcurrentIdentity(t *testing.T) {
	const goroutines = 8
	const n = 2048
	build := func(k int) *Formula {
		a := Var(Atom(k%31 + 1))
		c := Var(Atom(k%37 + 1))
		d := Var(Atom(k%41 + 1))
		return Or(And(a, Not(c)), And(c, d), Not(a))
	}
	results := make([][]*Formula, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs := make([]*Formula, n)
			for k := range fs {
				fs[k] = build(k)
			}
			results[g] = fs
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for k := 0; k < n; k++ {
			if results[g][k] != results[0][k] {
				t.Fatalf("goroutine %d interned a distinct formula at %d: %p vs %p",
					g, k, results[g][k], results[0][k])
			}
		}
	}
}
