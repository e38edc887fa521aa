package ir

import (
	"slices"
	"strings"
	"testing"

	"canary/internal/guard"
	"canary/internal/lang"
)

const fig2Source = `
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

func mustLower(t *testing.T, src string, opt Options) *Program {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Lower(ast, opt)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func countOps(p *Program, op Op) int {
	n := 0
	for _, i := range p.Insts() {
		if i.Op == op {
			n++
		}
	}
	return n
}

func TestLowerFig2Structure(t *testing.T) {
	p := mustLower(t, fig2Source, DefaultOptions())
	if len(p.Threads) != 2 {
		t.Fatalf("want 2 threads, got %d", len(p.Threads))
	}
	main, child := p.Threads[0], p.Threads[1]
	if main.Parent != -1 || main.ForkSite != NoLabel {
		t.Errorf("main thread malformed: %+v", main)
	}
	if child.Parent != 0 || child.ForkSite == NoLabel {
		t.Errorf("child thread malformed: %+v", child)
	}
	if fs := p.Inst(child.ForkSite); fs.Op != OpFork || fs.Thread != 0 {
		t.Errorf("fork site wrong: %v", p.String(fs))
	}
	// Two mallocs → two heap objects; no join → JoinSite unset.
	heaps := 0
	for _, o := range p.Objects {
		if o.Kind == ObjHeap {
			heaps++
		}
	}
	if heaps != 2 {
		t.Errorf("want 2 heap objects, got %d", heaps)
	}
	if child.JoinSite != NoLabel {
		t.Errorf("unjoined thread must have no join site")
	}
	if countOps(p, OpFree) != 1 || countOps(p, OpDeref) != 1 {
		t.Errorf("free/deref counts wrong: %d/%d", countOps(p, OpFree), countOps(p, OpDeref))
	}
}

func TestLowerFig2Guards(t *testing.T) {
	p := mustLower(t, fig2Source, DefaultOptions())
	theta := p.Pool.Bool("theta1")
	// The load c = *x must be guarded by θ1; the store *y = b by ¬θ1.
	var loadGuard, storeInChild *guard.Formula
	for _, i := range p.Insts() {
		if i.Op == OpLoad && i.Thread == 0 {
			loadGuard = i.Guard
		}
		if i.Op == OpStore && i.Thread == 1 {
			storeInChild = i.Guard
		}
	}
	if loadGuard == nil || storeInChild == nil {
		t.Fatal("missing load or store")
	}
	asnTrue := map[guard.Atom]bool{theta: true}
	asnFalse := map[guard.Atom]bool{theta: false}
	if !loadGuard.Eval(asnTrue) || loadGuard.Eval(asnFalse) {
		t.Errorf("load guard should be θ1: %s", p.Pool.String(loadGuard))
	}
	if storeInChild.Eval(asnTrue) || !storeInChild.Eval(asnFalse) {
		t.Errorf("store guard should be ¬θ1: %s", p.Pool.String(storeInChild))
	}
	// The conjunction of the two is unsatisfiable — the heart of Fig. 2.
	if guard.And(loadGuard, storeInChild) != guard.False() {
		t.Errorf("θ1 ∧ ¬θ1 should fold to false")
	}
}

func TestForkParamBinding(t *testing.T) {
	p := mustLower(t, fig2Source, DefaultOptions())
	// The child thread's first instruction must copy the fork argument
	// (x) into the parameter (y).
	child := p.Threads[1]
	first := child.Entry.Insts[0]
	if first.Op != OpCopy {
		t.Fatalf("child entry should bind the parameter, got %v", p.String(first))
	}
	if !strings.HasPrefix(p.VarName(first.Def), "y.") {
		t.Errorf("bound param should be named y.*, got %s", p.VarName(first.Def))
	}
	src := p.Var(first.Val)
	if !strings.HasPrefix(src.Name, "x.") {
		t.Errorf("bound value should be x.*, got %s", src.Name)
	}
}

func TestPhiInsertion(t *testing.T) {
	src := `
func main() {
  x = malloc();
  if (c1) {
    x = malloc();
  }
  print(*x);
}
`
	p := mustLower(t, src, DefaultOptions())
	if n := countOps(p, OpPhi); n != 1 {
		t.Fatalf("want exactly 1 φ, got %d", n)
	}
	for _, i := range p.Insts() {
		if i.Op == OpPhi {
			if len(i.Ops) != 2 || i.Ops[0].Guard == nil || i.Ops[1].Guard == nil {
				t.Fatalf("φ should have 2 guarded operands")
			}
			c1 := p.Pool.Bool("c1")
			g0 := i.Ops[0].Guard.Eval(map[guard.Atom]bool{c1: true})
			g1 := i.Ops[1].Guard.Eval(map[guard.Atom]bool{c1: true})
			if g0 == g1 {
				t.Errorf("φ guards must be complementary on c1")
			}
		}
	}
}

func TestIfElseBothBranches(t *testing.T) {
	src := `
func main() {
  if (c) { x = malloc(); } else { x = null; }
  print(*x);
}
`
	p := mustLower(t, src, DefaultOptions())
	if countOps(p, OpPhi) != 1 {
		t.Fatalf("if/else over x should make one φ")
	}
	if countOps(p, OpNull) != 1 || countOps(p, OpAlloc) != 1 {
		t.Fatal("both branches should be lowered")
	}
}

func TestWhileUnrolling(t *testing.T) {
	src := `
func main() {
  while (c) {
    x = malloc();
  }
}
`
	p2 := mustLower(t, src, Options{UnrollDepth: 2})
	if n := countOps(p2, OpAlloc); n != 2 {
		t.Errorf("unroll 2: want 2 allocs, got %d", n)
	}
	p3 := mustLower(t, src, Options{UnrollDepth: 3})
	if n := countOps(p3, OpAlloc); n != 3 {
		t.Errorf("unroll 3: want 3 allocs, got %d", n)
	}
}

func TestInliningDepthBound(t *testing.T) {
	src := `
func f3() { x = malloc(); print(*x); }
func f2() { f3(); }
func f1() { f2(); }
func main() { f1(); }
`
	deep := mustLower(t, src, Options{InlineDepth: 6})
	if n := countOps(deep, OpAlloc); n != 1 {
		t.Errorf("deep inline: want 1 alloc, got %d", n)
	}
	shallow := mustLower(t, src, Options{InlineDepth: 2})
	// f3 is beyond depth 2: its body is not inlined, so no alloc appears.
	if n := countOps(shallow, OpAlloc); n != 0 {
		t.Errorf("shallow inline: want 0 allocs, got %d", n)
	}
}

func TestSummaryAppliedBeyondDepth(t *testing.T) {
	// With InlineDepth 1, the chain main→get→mk cuts at mk, but the
	// Trans(mk) summary still materializes the returned allocation, so the
	// pointer value survives (previously it would havoc).
	src := `
func mk() { p = malloc(); return p; }
func get() { q = mk(); return q; }
func main() {
  v = get();
  free(v);
  print(*v);
}
`
	p := mustLower(t, src, Options{InlineDepth: 1})
	if n := countOps(p, OpAlloc); n != 1 {
		t.Fatalf("summary should materialize the returned allocation, got %d allocs", n)
	}
	// The free's operand must be transitively connected to the summary
	// allocation through copies.
	var freeVal VarID
	for _, i := range p.Insts() {
		if i.Op == OpFree {
			freeVal = i.Val
		}
	}
	if freeVal == 0 {
		t.Fatal("free missing")
	}
}

func TestSummaryIdentityBeyondDepth(t *testing.T) {
	// Trans(id) forwards the argument: the copy chain survives the cut.
	src := `
func id(x) { return x; }
func main() {
  a = malloc();
  b = id(a);
  free(b);
}
`
	p := mustLower(t, src, Options{InlineDepth: 0})
	_ = p
	// InlineDepth is clamped to ≥1 by withDefaults; use a deep chain
	// instead to force the cut.
	src2 := `
func id(x) { return x; }
func wrap1(x) { r = id(x); return r; }
func main() {
  a = malloc();
  b = wrap1(a);
  free(b);
}
`
	p2 := mustLower(t, src2, Options{InlineDepth: 1})
	// The free's operand should trace back to a (no havoc in between).
	havocs := countOps(p2, OpHavoc)
	if havocs != 0 {
		t.Fatalf("identity summary should avoid havoc, got %d", havocs)
	}
}

func TestRecursionCut(t *testing.T) {
	src := `
func rec(n) { m = rec(n); x = malloc(); }
func main() { rec(a); }
`
	p := mustLower(t, src, DefaultOptions())
	// rec inlined once; the recursive call inside becomes a havoc.
	if n := countOps(p, OpAlloc); n != 1 {
		t.Errorf("want 1 alloc from single inline, got %d", n)
	}
	if n := countOps(p, OpHavoc); n == 0 {
		t.Error("recursive call should havoc its result")
	}
}

func TestReturnValueFlow(t *testing.T) {
	src := `
func mk() { p = malloc(); return p; }
func main() { v = mk(); print(*v); }
`
	p := mustLower(t, src, DefaultOptions())
	if countOps(p, OpAlloc) != 1 {
		t.Fatal("callee body should be inlined")
	}
	// v receives the returned pointer through a copy.
	var derefVal VarID
	for _, i := range p.Insts() {
		if i.Op == OpDeref {
			derefVal = i.Val
		}
	}
	if derefVal == 0 {
		t.Fatal("deref missing")
	}
	if !strings.HasPrefix(p.Var(derefVal).Name, "v.") {
		t.Errorf("deref should use v.*, got %s", p.Var(derefVal).Name)
	}
}

func TestMultipleReturnsPhi(t *testing.T) {
	src := `
func pick() {
  if (c) { a = malloc(); return a; }
  b = null;
  return b;
}
func main() { v = pick(); print(*v); }
`
	p := mustLower(t, src, DefaultOptions())
	if countOps(p, OpPhi) != 1 {
		t.Errorf("two returns should merge via φ, got %d φs", countOps(p, OpPhi))
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	src := `
func f() { return; x = malloc(); }
func main() { f(); }
`
	p := mustLower(t, src, DefaultOptions())
	if countOps(p, OpAlloc) != 0 {
		t.Error("code after return must not be lowered")
	}
}

func TestIndirectForkViaFunctionPointer(t *testing.T) {
	src := `
func worker(z) { print(*z); }
func main() {
  fp = worker;
  x = malloc();
  fork(t, fp, x);
}
`
	p := mustLower(t, src, DefaultOptions())
	if len(p.Threads) != 2 {
		t.Fatalf("function-pointer fork should create a thread, got %d", len(p.Threads))
	}
	if !strings.Contains(p.Threads[1].Name, "worker") {
		t.Errorf("thread should run worker: %s", p.Threads[1].Name)
	}
}

func TestJoinSiteRecorded(t *testing.T) {
	src := `
func w() { x = malloc(); }
func main() {
  fork(t, w);
  join(t);
  y = malloc();
}
`
	p := mustLower(t, src, DefaultOptions())
	child := p.Threads[1]
	if child.JoinSite == NoLabel {
		t.Fatal("join site not recorded")
	}
	if p.Inst(child.JoinSite).Op != OpJoin {
		t.Fatal("join site is not a join instruction")
	}
}

func TestReachability(t *testing.T) {
	src := `
func main() {
  a = malloc();
  if (c) {
    b = malloc();
  } else {
    d = malloc();
  }
  e = malloc();
}
`
	p := mustLower(t, src, DefaultOptions())
	var la, lb, ld, le Label
	n := 0
	for _, i := range p.Insts() {
		if i.Op == OpAlloc {
			switch n {
			case 0:
				la = i.Label
			case 1:
				lb = i.Label
			case 2:
				ld = i.Label
			case 3:
				le = i.Label
			}
			n++
		}
	}
	if !p.Reaches(la, lb) || !p.Reaches(la, ld) || !p.Reaches(la, le) {
		t.Error("entry alloc should reach all")
	}
	if p.Reaches(lb, ld) || p.Reaches(ld, lb) {
		t.Error("exclusive branches must not reach each other")
	}
	if !p.Reaches(lb, le) || !p.Reaches(ld, le) {
		t.Error("branches should reach the join")
	}
	if p.Reaches(le, la) {
		t.Error("no backward reachability")
	}
}

func TestLockSets(t *testing.T) {
	src := `
global mu;
func main() {
  a = malloc();
  lock(mu);
  b = malloc();
  unlock(mu);
  c = malloc();
}
`
	p := mustLower(t, src, DefaultOptions())
	var allocs []*Inst
	for _, i := range p.Insts() {
		if i.Op == OpAlloc {
			allocs = append(allocs, i)
		}
	}
	if len(allocs) != 3 {
		t.Fatal("want 3 allocs")
	}
	if holdsMu(p, allocs[0]) {
		t.Error("first alloc must not hold mu")
	}
	if !holdsMu(p, allocs[1]) {
		t.Error("second alloc must hold mu")
	}
	if holdsMu(p, allocs[2]) {
		t.Error("third alloc must not hold mu")
	}
}

// holdsMu reports whether i must hold the lock mu.
func holdsMu(p *Program, i *Inst) bool {
	return slices.ContainsFunc(p.Locks(i), func(h HeldLock) bool { return h.Name == "mu" })
}

func TestLockSetsMustMeet(t *testing.T) {
	// A lock taken on only one branch must not be "held" after the join.
	src := `
global mu;
func main() {
  if (c) { lock(mu); }
  x = malloc();
}
`
	p := mustLower(t, src, DefaultOptions())
	for _, i := range p.Insts() {
		if i.Op == OpAlloc && holdsMu(p, i) {
			t.Error("must-analysis violated at join")
		}
	}
}

func TestGlobalsShared(t *testing.T) {
	src := `
global g;
func main() {
  p = &g;
  *p = p;
}
`
	p := mustLower(t, src, DefaultOptions())
	found := false
	for _, o := range p.Objects {
		if o.Kind == ObjGlobal && o.Name == "g:g" {
			found = true
		}
	}
	if !found {
		t.Error("global object missing")
	}
}

func TestMissingEntry(t *testing.T) {
	ast, err := lang.Parse("func notmain() { }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(ast, DefaultOptions()); err == nil {
		t.Fatal("missing main should error")
	}
}

func TestNestedFork(t *testing.T) {
	src := `
func leaf() { x = malloc(); }
func mid() { fork(t2, leaf); }
func main() { fork(t1, mid); }
`
	p := mustLower(t, src, DefaultOptions())
	if len(p.Threads) != 3 {
		t.Fatalf("want 3 threads, got %d", len(p.Threads))
	}
	if p.Threads[2].Parent != 1 {
		t.Errorf("leaf thread's parent should be mid's thread")
	}
	anc := p.Ancestors(2)
	if len(anc) != 3 || anc[0] != 2 || anc[2] != 0 {
		t.Errorf("ancestors of leaf: %v", anc)
	}
}

func TestInstStringCoverage(t *testing.T) {
	src := `
global mu;
func w(q) { sink(q); }
func main() {
  a = malloc();
  b = a;
  n = null;
  s = taint();
  k = 1;
  m = a + b;
  c = *a;
  *a = b;
  free(b);
  print(*c);
  lock(mu);
  unlock(mu);
  fork(t, w, s);
  join(t);
}
`
	p := mustLower(t, src, DefaultOptions())
	for _, i := range p.Insts() {
		if s := p.String(i); s == "" || strings.Contains(s, "?") {
			t.Errorf("bad rendering for %v: %q", i.Op, s)
		}
	}
}
