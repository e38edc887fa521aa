package core

import (
	"testing"

	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/vfg"
)

// fig2 is the motivating bug-free program of the paper (Fig. 2a): the load
// in main is guarded by θ1, the store in thread1 by ¬θ1, so the apparent
// inter-thread use-after-free is irrealizable.
const fig2 = `
func main(a) {
  x = malloc();        // o1
  *x = a;
  fork(t, thread1, x);
  if (theta1) {
    c = *x;
    print(*c);
  }
}

func thread1(y) {
  b = malloc();        // o2
  if (!theta1) {
    *y = b;
    free(b);
  }
}
`

// fig2Buggy flips thread1's branch condition to θ1: with compatible branch
// conditions the use-after-free is realizable.
const fig2Buggy = `
func main(a) {
  x = malloc();
  *x = a;
  fork(t, thread1, x);
  if (theta1) {
    c = *x;
    print(*c);
  }
}

func thread1(y) {
  b = malloc();
  if (theta1) {
    *y = b;
    free(b);
  }
}
`

func build(t *testing.T, src string) *Builder {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Build(prog, DefaultBuild())
}

func checkUAF(t *testing.T, b *Builder) ([]Report, CheckStats) {
	t.Helper()
	opt := DefaultCheck()
	opt.Checkers = []string{CheckUAF}
	return b.Check(opt)
}

func TestFig2NoFalsePositive(t *testing.T) {
	b := build(t, fig2)
	reports, _ := checkUAF(t, b)
	if len(reports) != 0 {
		t.Fatalf("Fig. 2 is bug-free; got %d reports: %v", len(reports), reports)
	}
}

func TestFig2EdgeFilteredBySemiDecision(t *testing.T) {
	// The candidate interference edge b@store → c@load carries the alias
	// guard θ1 ∧ ¬θ1; the construction-time semi-decision filter (§5.2,
	// opt. 1) refutes it before it ever reaches the VFG.
	b := build(t, fig2)
	if b.Stats.FilteredEdges == 0 {
		t.Fatal("the contradictory Fig. 2 edge should be counted as filtered")
	}
	if b.Stats.InterferenceEdges != 0 {
		t.Fatalf("no realizable interference edge exists in Fig. 2; got %d",
			b.Stats.InterferenceEdges)
	}
}

func TestFig2BuggyVariantReported(t *testing.T) {
	b := build(t, fig2Buggy)
	reports, _ := checkUAF(t, b)
	if len(reports) != 1 {
		t.Fatalf("want exactly 1 UAF report, got %d: %v", len(reports), reports)
	}
	r := reports[0]
	if r.Kind != CheckUAF {
		t.Errorf("kind = %s", r.Kind)
	}
	if r.Source.Thread == r.Sink.Thread {
		t.Errorf("inter-thread bug must span threads: %+v", r)
	}
	if len(r.Path) == 0 || r.Guard == "" {
		t.Errorf("report should carry a path and guard: %+v", r)
	}
}

func TestEscapeAnalysis(t *testing.T) {
	b := build(t, fig2)
	// o1 (passed to fork) and o2 (stored into escaped o1) both escape.
	var o1, o2 ir.ObjID
	for _, o := range b.Prog.Objects {
		if o.Kind == ir.ObjHeap {
			if o1 == 0 {
				o1 = o.ID
			} else {
				o2 = o.ID
			}
		}
	}
	if !b.Escaped(o1) {
		t.Error("o1 is passed to the fork and must escape")
	}
	if !b.Escaped(o2) {
		t.Error("o2 is stored into escaped o1 and must escape (the cyclic enlargement)")
	}
}

func TestLocalObjectDoesNotEscape(t *testing.T) {
	b := build(t, `
func w() { q = malloc(); }
func main() {
  p = malloc();
  fork(t, w);
}
`)
	escaped := 0
	for _, o := range b.Prog.Objects {
		if o.Kind == ir.ObjHeap && b.Escaped(o.ID) {
			escaped++
		}
	}
	if escaped != 0 {
		t.Fatalf("thread-local objects must not escape; %d escaped", escaped)
	}
}

func TestPtedContainsBothPointers(t *testing.T) {
	b := build(t, fig2)
	// Pted(o1) must contain both x (main) and y (thread1) — Example 4.2.
	var o1 ir.ObjID
	for _, o := range b.Prog.Objects {
		if o.Kind == ir.ObjHeap {
			o1 = o.ID
			break
		}
	}
	pted := b.Pted(o1)
	names := map[string]bool{}
	for n := range pted {
		node := b.G.Node(n)
		if node.Kind == vfg.NodeVar {
			names[b.Prog.VarName(node.Var())[:2]] = true
		}
	}
	if !names["x."] || !names["y."] {
		t.Fatalf("Pted(o1) should contain x and y, got %v", names)
	}
}

func TestTrueInterThreadUAF(t *testing.T) {
	b := build(t, `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`)
	reports, _ := checkUAF(t, b)
	if len(reports) != 1 {
		t.Fatalf("want 1 UAF report, got %d", len(reports))
	}
}

func TestUseBeforeForkNotReported(t *testing.T) {
	// The load happens strictly before the fork, so it can never observe
	// the child's store: MHP pruning (and program order) kill the path.
	b := build(t, `
func main() {
  x = malloc();
  c = *x;
  print(*c);
  fork(t, worker, x);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`)
	reports, _ := checkUAF(t, b)
	if len(reports) != 0 {
		t.Fatalf("load precedes fork; want 0 reports, got %d: %v", len(reports), reports)
	}
}

func TestOverwriteShieldedFlowPrunedByOrders(t *testing.T) {
	// t1 stores b (then frees it) and is joined; main overwrites the slot
	// with a fresh object before forking t2, whose load therefore can never
	// observe b: the intervening-store constraint of Φ_ls, combined with
	// the fork/join program order, refutes the path. MHP pruning is
	// disabled so that the edge exists and the refutation must come from
	// the lazy order constraints (the O3 < O13 mechanism of Fig. 2).
	src := `
func t1(y) {
  b = malloc();
  *y = b;
  free(b);
}
func t2(z) {
  c = *z;
  print(*c);
}
func main() {
  x = malloc();
  fork(ta, t1, x);
  join(ta);
  a = malloc();
  *x = a;
  fork(tb, t2, x);
}
`
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := Build(prog, BuildOptions{EnableMHP: false})
	reports, stats := checkUAF(t, b)
	if len(reports) != 0 {
		t.Fatalf("overwrite-shielded flow must be refuted by order constraints: %v", reports)
	}
	if stats.SolverUnsat == 0 && stats.SemiDecided == 0 {
		t.Fatal("a candidate path should have been examined and refuted")
	}
}

func TestFreeBetweenStoreAndOverwriteReported(t *testing.T) {
	// free(b) happens between the store of b and the overwrite: the load
	// can land in the (free .. overwrite) window — a realizable UAF.
	b := build(t, `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  a = malloc();
  *y = b;
  free(b);
  *y = a;
}
`)
	reports, _ := checkUAF(t, b)
	if len(reports) != 1 {
		t.Fatalf("want 1 report (window between free and overwrite), got %d", len(reports))
	}
}

func TestLockOrderExtensionPrunes(t *testing.T) {
	// The store of b, its free, and the overwrite all happen inside one
	// critical section; the load runs under the same lock. The load can
	// therefore never land between the store and the overwrite: with the
	// lock/unlock extension the path is irrealizable.
	src := `
global mu;
func main() {
  x = malloc();
  fork(t, worker, x);
  lock(mu);
  c = *x;
  print(*c);
  unlock(mu);
}
func worker(y) {
  b = malloc();
  a = malloc();
  lock(mu);
  *y = b;
  free(b);
  *y = a;
  unlock(mu);
}
`
	b := build(t, src)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckUAF}
	opt.LockOrder = true
	withLocks, _ := b.Check(opt)
	if len(withLocks) != 0 {
		t.Fatalf("lock extension should prune the report, got %d", len(withLocks))
	}

	b2 := build(t, src)
	opt2 := DefaultCheck()
	opt2.Checkers = []string{CheckUAF}
	opt2.LockOrder = false
	withoutLocks, _ := b2.Check(opt2)
	if len(withoutLocks) != 1 {
		t.Fatalf("without the lock extension the report should appear, got %d", len(withoutLocks))
	}
}

func TestNullDerefInterThread(t *testing.T) {
	b := build(t, `
func main() {
  x = malloc();
  p = malloc();
  *x = p;
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  n = null;
  *y = n;
}
`)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckNullDeref}
	reports, _ := b.Check(opt)
	if len(reports) != 1 {
		t.Fatalf("want 1 null-deref report, got %d", len(reports))
	}
}

func TestTaintLeakInterThread(t *testing.T) {
	b := build(t, `
func main() {
  x = malloc();
  fork(t, producer, x);
  v = *x;
  w = v + k;
  sink(w);
}
func producer(y) {
  s = taint();
  *y = s;
}
`)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckTaintLeak}
	reports, _ := b.Check(opt)
	if len(reports) != 1 {
		t.Fatalf("want 1 taint-leak report (through the binop), got %d", len(reports))
	}
}

func TestDoubleFreeInterThread(t *testing.T) {
	b := build(t, `
func main() {
  p = malloc();
  fork(t, w, p);
  free(p);
}
func w(q) {
  free(q);
}
`)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckDoubleFree}
	reports, _ := b.Check(opt)
	if len(reports) != 1 {
		t.Fatalf("want 1 double-free report, got %d: %v", len(reports), reports)
	}
}

func TestIntraThreadRequiresOptOut(t *testing.T) {
	src := `
func main() {
  p = malloc();
  free(p);
  print(*p);
}
`
	b := build(t, src)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckUAF}
	inter, _ := b.Check(opt)
	if len(inter) != 0 {
		t.Fatalf("intra-thread UAF must be filtered in inter-thread mode, got %d", len(inter))
	}
	opt.RequireInterThread = false
	intra, _ := b.Check(opt)
	if len(intra) != 1 {
		t.Fatalf("with RequireInterThread off the sequential UAF should appear, got %d", len(intra))
	}
}

func TestParallelWorkersSameResult(t *testing.T) {
	b := build(t, fig2Buggy)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckUAF}
	seq, _ := b.Check(opt)
	opt.Workers = 4
	par, _ := b.Check(opt)
	if len(seq) != len(par) {
		t.Fatalf("parallel checking changed results: %d vs %d", len(seq), len(par))
	}
}

func TestCubeAndConquerSameResult(t *testing.T) {
	b := build(t, fig2Buggy)
	opt := DefaultCheck()
	opt.Checkers = []string{CheckUAF}
	plain, _ := b.Check(opt)
	opt.CubeAndConquer = true
	cube, _ := b.Check(opt)
	if len(plain) != len(cube) {
		t.Fatalf("cube-and-conquer changed results: %d vs %d", len(plain), len(cube))
	}
}

func TestMHPPruningReducesEdges(t *testing.T) {
	src := `
func main() {
  x = malloc();
  c = *x;
  print(*c);
  fork(t, worker, x);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog1, _ := ir.Lower(ast, ir.DefaultOptions())
	withMHP := Build(prog1, BuildOptions{EnableMHP: true})
	prog2, _ := ir.Lower(ast, ir.DefaultOptions())
	withoutMHP := Build(prog2, BuildOptions{EnableMHP: false})
	if withMHP.Stats.InterferenceEdges >= withoutMHP.Stats.InterferenceEdges {
		t.Fatalf("MHP pruning should reduce interference edges: %d vs %d",
			withMHP.Stats.InterferenceEdges, withoutMHP.Stats.InterferenceEdges)
	}
}

func TestUAFThroughProceduralSummary(t *testing.T) {
	// The allocator chain exceeds the inlining depth; the Trans(F)
	// summaries still carry the pointer to the shared cell, so the
	// inter-thread UAF is found.
	src := `
func mk() { p = malloc(); return p; }
func l1() { q = mk(); return q; }
func l2() { q = l1(); return q; }
func l3() { q = l2(); return q; }
func worker(cell) {
  b = l3();
  *cell = b;
  free(b);
}
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
`
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.Options{InlineDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := Build(prog, DefaultBuild())
	reports, _ := checkUAF(t, b)
	if len(reports) != 1 {
		t.Fatalf("summary-carried allocation should be tracked; got %d reports", len(reports))
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	b := build(t, fig2)
	if b.Stats.Iterations == 0 || b.Stats.DirectEdges == 0 {
		t.Fatalf("stats not populated: %+v", b.Stats)
	}
	if b.Stats.EscapedObjects == 0 {
		t.Error("escaped objects should be counted")
	}
}

func TestReportString(t *testing.T) {
	b := build(t, fig2Buggy)
	reports, _ := checkUAF(t, b)
	if len(reports) == 0 {
		t.Fatal("need a report")
	}
	if s := reports[0].String(); s == "" {
		t.Error("empty report rendering")
	}
}
