package vfg

import (
	"strings"
	"testing"
	"unsafe"

	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
)

func lowered(t *testing.T) *ir.Program {
	t.Helper()
	src := `
func main() {
  p = malloc();
  q = p;
  *q = p;
  r = *q;
  print(*r);
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
	return prog
}

func firstVar(t *testing.T, prog *ir.Program, prefix string) ir.VarID {
	t.Helper()
	for _, v := range prog.Vars {
		if len(v.Name) >= len(prefix) && v.Name[:len(prefix)] == prefix {
			return v.ID
		}
	}
	t.Fatalf("no var with prefix %q", prefix)
	return 0
}

func TestNodeInterning(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := firstVar(t, prog, "p.")
	n1 := g.VarNode(p)
	n2 := g.VarNode(p)
	if n1 != n2 {
		t.Error("var nodes must intern")
	}
	o := prog.Objects[0].ID
	if g.ObjNode(o) != g.ObjNode(o) {
		t.Error("obj nodes must intern")
	}
	if g.NumNodes() != 2 {
		t.Errorf("want 2 nodes, got %d", g.NumNodes())
	}
	node := g.Node(n1)
	if node.Kind != NodeVar || node.Var() != p {
		t.Errorf("node malformed: %+v", node)
	}
}

func TestAddEdgeDedupJoinsGuards(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := g.VarNode(firstVar(t, prog, "p."))
	q := g.VarNode(firstVar(t, prog, "q."))
	a := guard.Var(1)
	if !g.AddEdge(Edge{From: p, To: q, Kind: EdgeDirect, Guard: a}) {
		t.Fatal("first insert should be new")
	}
	if g.AddEdge(Edge{From: p, To: q, Kind: EdgeDirect, Guard: guard.Not(a)}) {
		t.Fatal("duplicate edge should merge, not insert")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 edge, got %d", g.NumEdges())
	}
	// a ∨ ¬a folds to true.
	if !g.Edge(0).Guard.IsTrue() {
		t.Errorf("merged guard should be true, got %v", g.Edge(0).Guard)
	}
	// Different kind or indirect bookkeeping means a different edge.
	dd := Edge{From: p, To: q, Kind: EdgeDD, Guard: a, Store: 1, Load: 2, Obj: 1}
	if !g.AddEdge(dd) {
		t.Fatal("distinct indirect edge should insert")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("want 2 edges, got %d", g.NumEdges())
	}
	// Edges that differ from dd only in field, store or load stay
	// distinct, and each merges with its own duplicate.
	field, store, load := dd, dd, dd
	field.Field = 1
	store.Store = 3
	load.Load = 4
	for _, e := range []Edge{field, store, load} {
		if !g.AddEdge(e) {
			t.Fatalf("%+v merged into another edge", e)
		}
	}
	for _, e := range []Edge{dd, field, store, load} {
		e.Guard = guard.Not(a)
		if g.AddEdge(e) {
			t.Fatalf("%+v inserted twice", e)
		}
	}
	if g.NumEdges() != 5 {
		t.Fatalf("want 5 edges, got %d", g.NumEdges())
	}
	for id := EdgeID(1); id < 5; id++ {
		if !g.Edge(id).Guard.IsTrue() {
			t.Errorf("edge %d: guard %v, want a ∨ ¬a = true", id, g.Edge(id).Guard)
		}
	}
}

// TestLayoutSizes pins the sizes of the graph's tables' elements. A
// build presizes an edge per operand, load and store and a node per
// variable and object, and keeps them all live while it runs.
func TestLayoutSizes(t *testing.T) {
	// 48 bytes, down from 80: no stored id, the interned field id in
	// place of the field string, 32-bit endpoints.
	if n := unsafe.Sizeof(Edge{}); n > 48 {
		t.Errorf("Edge is %d bytes, ceiling 48", n)
	}
	// 24 bytes, down from 48: no stored id, one slot for the variable or
	// object, a 32-bit thread.
	if n := unsafe.Sizeof(Node{}); n > 24 {
		t.Errorf("Node is %d bytes, ceiling 24", n)
	}
}

func TestAdjacency(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := g.VarNode(firstVar(t, prog, "p."))
	q := g.VarNode(firstVar(t, prog, "q."))
	r := g.VarNode(firstVar(t, prog, "r."))
	g.AddEdge(Edge{From: p, To: q, Kind: EdgeDirect, Guard: guard.True()})
	g.AddEdge(Edge{From: p, To: r, Kind: EdgeDirect, Guard: guard.True()})
	g.AddEdge(Edge{From: q, To: r, Kind: EdgeDirect, Guard: guard.True()})
	if len(g.Out(p)) != 2 || len(g.In(p)) != 0 {
		t.Errorf("p adjacency wrong: out=%d in=%d", len(g.Out(p)), len(g.In(p)))
	}
	if len(g.In(r)) != 2 {
		t.Errorf("r in-degree = %d", len(g.In(r)))
	}
}

func TestObjStores(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	loc := Loc{Obj: prog.Objects[0].ID}
	a := guard.Var(1)
	g.AddObjStore(loc, StoreRef{Store: 5, Guard: a})
	g.AddObjStore(loc, StoreRef{Store: 5, Guard: guard.Not(a)}) // merges
	g.AddObjStore(loc, StoreRef{Store: 9, Guard: a})
	refs := g.ObjStores(loc)
	if len(refs) != 2 {
		t.Fatalf("want 2 store refs, got %d", len(refs))
	}
	if !refs[0].Guard.IsTrue() {
		t.Errorf("merged store guard should be true")
	}
	if g.ObjStores(Loc{Obj: ir.ObjID(999)}) != nil {
		t.Error("unknown object should have no stores")
	}
	// Distinct fields of one object are distinct locations.
	fieldLoc := Loc{Obj: prog.Objects[0].ID, Field: "next"}
	g.AddObjStore(fieldLoc, StoreRef{Store: 11, Guard: a})
	if len(g.ObjStores(loc)) != 2 || len(g.ObjStores(fieldLoc)) != 1 {
		t.Error("field locations must not share store sets")
	}
}

func TestEdgeCountByKindAndStrings(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := g.VarNode(firstVar(t, prog, "p."))
	q := g.VarNode(firstVar(t, prog, "q."))
	o := g.ObjNode(prog.Objects[0].ID)
	g.AddEdge(Edge{From: o, To: p, Kind: EdgeObj, Guard: guard.True()})
	g.AddEdge(Edge{From: p, To: q, Kind: EdgeInterference, Guard: guard.True(), Store: 1, Load: 2, Obj: 1})
	counts := g.EdgeCountByKind()
	if counts[EdgeObj] != 1 || counts[EdgeInterference] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if s := g.NodeString(p); s == "" {
		t.Error("empty node rendering")
	}
	if s := g.NodeString(o); s == "" {
		t.Error("empty object rendering")
	}
	for _, k := range []EdgeKind{EdgeDirect, EdgeDD, EdgeInterference, EdgeObj} {
		if k.String() == "" {
			t.Error("empty kind rendering")
		}
	}
}

// fanIn is the in-degree of BenchmarkAddEdgeFanIn's target node.
const fanIn = 4096

// BenchmarkAddEdgeFanIn adds fanIn distinct edges into one node, each
// twice, on a fresh graph per iteration, so half the adds are duplicates
// that dedup must find. "sources" draws each edge from its own source
// node, the common shape of a load many stores reach; "one-source" draws
// them all from one node and tells them apart by store label, so that
// both endpoints' adjacency lists grow to fanIn: the worst case of a
// dedup that scans them.
func BenchmarkAddEdgeFanIn(b *testing.B) {
	var src strings.Builder
	src.WriteString("func main() {\n  p = malloc();\n")
	for i := 0; i < fanIn; i++ {
		src.WriteString("  q = p;\n")
	}
	src.WriteString("}\n")
	ast, err := lang.Parse(src.String())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if len(prog.Vars) < fanIn+1 {
		b.Fatalf("%d variables, want %d", len(prog.Vars), fanIn+1)
	}
	to := ir.VarID(len(prog.Vars))
	for _, shape := range []string{"sources", "one-source"} {
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(prog)
				t := g.VarNode(to)
				for rep := 0; rep < 2; rep++ {
					for k := 0; k < fanIn; k++ {
						e := Edge{To: t, Kind: EdgeDD, Guard: guard.True(), Store: ir.Label(k), Load: 1, Obj: 1}
						if shape == "sources" {
							e.From = g.VarNode(ir.VarID(k + 1))
						} else {
							e.From = g.VarNode(1)
						}
						if g.AddEdge(e) != (rep == 0) {
							b.Fatalf("edge %d, pass %d: wrong novelty", k, rep)
						}
					}
				}
			}
		})
	}
}
