package canary

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"canary/internal/baseline"
	"canary/internal/bitset"
	"canary/internal/core"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// randomSpec builds a small random workload spec.
func randomSpec(r *rand.Rand) workload.Spec {
	return workload.Spec{
		Name:          "prop",
		Lines:         r.Intn(300) + 100,
		Seed:          r.Int63(),
		TruePositives: r.Intn(3),
		CanaryFPs:     r.Intn(2),
		Fig2Traps:     r.Intn(3),
		OrderTraps:    r.Intn(2),
		LockTraps:     r.Intn(2),
		SaberTraps:    r.Intn(2),
		Fan:           r.Intn(3) + 1,
	}
}

// Property: every pair Canary reports is also connected in the Saber-like
// baseline's flow-insensitive over-approximation — i.e., Canary's
// precision gains never come from inventing flows, only from refuting them.
func TestQuickCanarySubsetOfSaber(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		src := workload.Generate(spec)
		ast, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		b := core.Build(prog, core.DefaultBuild())
		opt := core.DefaultCheck()
		opt.Checkers = []string{core.CheckUAF}
		canaryReports, _ := b.Check(opt)

		res, err := baseline.Saber{}.BuildVFG(context.Background(), prog)
		if err != nil {
			t.Fatalf("seed %d: saber: %v", seed, err)
		}
		saber := make(map[[2]ir.Label]bool)
		for _, nr := range baseline.CheckReachability(res.G, "use-after-free") {
			saber[[2]ir.Label{nr.Source, nr.Sink}] = true
		}
		for _, cr := range canaryReports {
			if !saber[[2]ir.Label{cr.Source.Label, cr.Sink.Label}] {
				t.Logf("seed %d: canary-only pair %d→%d (%s → %s)", seed,
					cr.Source.Label, cr.Sink.Label, cr.Source.Desc, cr.Sink.Desc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the checker's verdicts are stable across the performance knobs
// (workers, cube-and-conquer, fact propagation) — they change cost, never
// results.
func TestQuickConfigInvariance(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		src := workload.Generate(spec)

		run := func(mutate func(*Options)) int {
			opt := DefaultOptions()
			opt.Checkers = []string{CheckUseAfterFree}
			if mutate != nil {
				mutate(&opt)
			}
			res, err := Analyze(src, opt)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return len(res.Reports)
		}
		base := run(nil)
		variants := []func(*Options){
			func(o *Options) { o.Workers = 4 },
			func(o *Options) { o.CubeAndConquer = true },
			func(o *Options) { o.FactPropagation = false },
			func(o *Options) { o.Workers = 3; o.FactPropagation = false },
		}
		for i, v := range variants {
			if got := run(v); got != base {
				t.Logf("seed %d: variant %d changed verdict: %d vs %d", seed, i, got, base)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: MHP is symmetric and same-thread pairs are never MHP; Ordered
// is antisymmetric.
func TestQuickMHPProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		src := workload.Generate(spec)
		ast, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b := core.Build(prog, core.DefaultBuild())
		n := prog.NumInsts()
		for trial := 0; trial < 200; trial++ {
			a := ir.Label(r.Intn(n))
			z := ir.Label(r.Intn(n))
			if b.MHP.MHP(a, z) != b.MHP.MHP(z, a) {
				t.Logf("seed %d: MHP not symmetric at (%d,%d)", seed, a, z)
				return false
			}
			if prog.Inst(a).Thread == prog.Inst(z).Thread && b.MHP.MHP(a, z) {
				t.Logf("seed %d: same-thread MHP at (%d,%d)", seed, a, z)
				return false
			}
			if b.MHP.Ordered(a, z) != -b.MHP.Ordered(z, a) {
				t.Logf("seed %d: Ordered not antisymmetric at (%d,%d)", seed, a, z)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Robustness: Analyze never panics on malformed input — it parses or
// returns an error.
func TestQuickAnalyzeRobustOnJunk(t *testing.T) {
	tokens := []string{
		"func", "main", "(", ")", "{", "}", ";", "=", "*", "&", "malloc",
		"free", "print", "fork", "join", "if", "else", "while", "x", "y",
		"t", "lock", "unlock", "wait", "notify", "null", "taint", "sink",
		"1", "0", "&&", "||", "!", "==", "<", "global", "return", ",",
	}
	check := func(seed int64) (ok bool) {
		defer func() {
			if p := recover(); p != nil {
				t.Logf("seed %d panicked: %v", seed, p)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		var src string
		for i := 0; i < r.Intn(120); i++ {
			src += tokens[r.Intn(len(tokens))] + " "
		}
		_, _ = Analyze(src, DefaultOptions())
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Robustness: random byte soup must never panic the lexer/parser.
func TestQuickParserRobustOnBytes(t *testing.T) {
	check := func(data []byte) (ok bool) {
		defer func() {
			if p := recover(); p != nil {
				t.Logf("panicked on %q: %v", data, p)
				ok = false
			}
		}()
		_, _ = lang.Parse(string(data))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// Property: the IR lowering maintains its structural invariants on random
// workloads — topological block order, consistent pred/succ links, and
// defs before uses in program order.
func TestQuickIRInvariants(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		src := workload.Generate(spec)
		ast, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range prog.Threads {
			for i := 1; i < len(th.Blocks); i++ {
				if th.Blocks[i].ID <= th.Blocks[i-1].ID {
					t.Logf("seed %d: thread %d blocks not ID-ordered", seed, th.ID)
					return false
				}
			}
			for _, blk := range th.Blocks {
				for _, s := range blk.Succs {
					if s.ID <= blk.ID {
						t.Logf("seed %d: back edge %d→%d (must be acyclic)", seed, blk.ID, s.ID)
						return false
					}
					found := false
					for _, p := range s.Preds {
						if p == blk {
							found = true
						}
					}
					if !found {
						t.Logf("seed %d: succ/pred mismatch", seed)
						return false
					}
				}
			}
		}
		// Defs precede uses (SSA over the acyclic CFG): a same-thread use
		// must be reachable from (or in the same block after) its def.
		for _, inst := range prog.Insts() {
			uses := []ir.VarID{inst.Val, inst.Ptr}
			for _, op := range inst.Ops {
				uses = append(uses, op.Var)
			}
			for _, v := range uses {
				if v == 0 {
					continue
				}
				def := prog.Var(v).Def
				if def == ir.NoLabel || def == inst.Label {
					continue
				}
				defInst := prog.Inst(def)
				if defInst.Thread != inst.Thread {
					continue // cross-thread param binding
				}
				if !prog.Reaches(def, inst.Label) {
					t.Logf("seed %d: use at ℓ%d not reachable from def ℓ%d (%s / %s)",
						seed, inst.Label, def, prog.String(defInst), prog.String(inst))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: report counts from Analyze equal the seeded ground truth of
// the workload generator for arbitrary specs (the Table 1 invariant,
// generalized).
func TestQuickWorkloadGroundTruth(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		src := workload.Generate(spec)
		opt := DefaultOptions()
		opt.Checkers = []string{CheckUseAfterFree}
		res, err := Analyze(src, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tp, fp := 0, 0
		for _, rep := range res.Reports {
			if workload.TruePositive(rep.Source.Fn) {
				tp++
			} else {
				fp++
			}
		}
		if tp != spec.TruePositives || fp != spec.CanaryFPs {
			t.Logf("seed %d (%s): got tp=%d fp=%d, want tp=%d fp=%d",
				seed, fmt.Sprintf("%+v", spec), tp, fp, spec.TruePositives, spec.CanaryFPs)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bitset used by the points-to and location hot paths agrees
// with a map[int]bool reference on every operation sequence — membership,
// add/remove reporting, union change-reporting, cardinality, and strictly
// ascending iteration.
func TestQuickBitsetMatchesMapSet(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, other := new(bitset.Set), new(bitset.Set)
		ref := make(map[int]bool)
		oref := make(map[int]bool)
		for op := 0; op < 300; op++ {
			k := r.Intn(400)
			switch r.Intn(5) {
			case 0:
				if s.Add(k) != !ref[k] {
					t.Logf("seed %d: Add(%d) change report wrong", seed, k)
					return false
				}
				ref[k] = true
			case 1:
				s.Remove(k)
				delete(ref, k)
			case 2:
				other.Add(k)
				oref[k] = true
			case 3:
				grew := false
				for kk := range oref {
					if !ref[kk] {
						ref[kk] = true
						grew = true
					}
				}
				if s.UnionWith(other) != grew {
					t.Logf("seed %d: UnionWith change report wrong", seed)
					return false
				}
			case 4:
				if s.Has(k) != ref[k] {
					t.Logf("seed %d: Has(%d) mismatch", seed, k)
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			t.Logf("seed %d: Len %d != %d", seed, s.Len(), len(ref))
			return false
		}
		prev, ordered := -1, true
		seen := 0
		s.ForEach(func(k int) {
			if k <= prev || !ref[k] {
				ordered = false
			}
			prev = k
			seen++
		})
		return ordered && seen == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the batched assignment-slice evaluator (EvalAssign / EvalAll)
// agrees with the map-based Eval on random formulas under random partial
// assignments, including the unassigned-atom-is-false convention.
func TestQuickBatchedEvalMatchesMapEval(t *testing.T) {
	const nAtoms = 12
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var gen func(depth int) *guard.Formula
		gen = func(depth int) *guard.Formula {
			if depth == 0 || r.Intn(3) == 0 {
				f := guard.Var(guard.Atom(r.Intn(nAtoms) + 1))
				if r.Intn(2) == 0 {
					f = guard.Not(f)
				}
				return f
			}
			subs := make([]*guard.Formula, r.Intn(3)+2)
			for i := range subs {
				subs[i] = gen(depth - 1)
			}
			if r.Intn(2) == 0 {
				return guard.And(subs...)
			}
			return guard.Or(subs...)
		}
		fs := make([]*guard.Formula, r.Intn(8)+1)
		for i := range fs {
			fs[i] = gen(3)
		}
		m := make(map[guard.Atom]bool)
		asn := guard.NewAssignment(nAtoms)
		for a := guard.Atom(1); a <= nAtoms; a++ {
			switch r.Intn(3) {
			case 0:
				m[a] = true
				asn.Set(a, true)
			case 1:
				// Explicit false: distinct from missing in the map's
				// representation, identical under Eval semantics.
				m[a] = false
				asn.Set(a, false)
			}
		}
		got := guard.EvalAll(fs, asn, nil)
		for i, f := range fs {
			want := f.Eval(m)
			if got[i] != want || f.EvalAssign(asn) != want {
				t.Logf("seed %d: formula %d: map=%v batched=%v single=%v",
					seed, i, want, got[i], f.EvalAssign(asn))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
