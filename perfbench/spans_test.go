package main

import (
	"math/rand"
	"testing"
	"time"
)

// synthTree builds a random well-formed span tree for one request: every
// child lies inside its parent and siblings never overlap, with random
// gaps that become the parents' self time.
func synthTree(r *rand.Rand, spans []Span, parent, req int, start, end time.Duration, depth int) []Span {
	id := len(spans)
	name := []string{"lang.parse", "ir.lower", "core.build", "core.check"}[r.Intn(4)]
	spans = append(spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	if depth == 0 {
		return spans
	}
	t := start
	for k := r.Intn(4); k > 0 && t < end; k-- {
		cs := t + time.Duration(r.Int63n(int64(end-t)/2+1))
		ce := cs + time.Duration(r.Int63n(int64(end-cs)+1))
		spans = synthTree(r, spans, id, req, cs, ce, depth-1)
		t = ce
	}
	return spans
}

func TestSelfTimesPartitionSyntheticTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var spans []Span
		var roots []int
		for req := 0; req < 3; req++ {
			roots = append(roots, len(spans))
			base := time.Duration(req) * time.Second
			spans = synthTree(r, spans, -1, req, base, base+time.Duration(1+r.Int63n(int64(time.Millisecond))), 4)
		}
		for _, root := range roots {
			self, err := SelfTimes(spans, root)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := checkPartition(spans, root, self); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			kidsSelf := make(map[int]time.Duration)
			for id, d := range self {
				if d < 0 {
					t.Fatalf("trial %d: span %d has negative self time %v", trial, id, d)
				}
				if p := spans[id].Parent; p >= 0 {
					kidsSelf[p] += d
				}
			}
			for p, sum := range kidsSelf {
				if sum > spans[p].Wall() {
					t.Fatalf("trial %d: children of span %d have self time %v > parent wall %v", trial, p, sum, spans[p].Wall())
				}
			}
		}
	}
}

func TestSelfTimesRejectMalformedTrees(t *testing.T) {
	ms := time.Millisecond
	overlap := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "lang.parse", Start: 1 * ms, End: 5 * ms},
		{ID: 2, Parent: 0, Name: "ir.lower", Start: 4 * ms, End: 6 * ms},
	}
	if _, err := SelfTimes(overlap, 0); err == nil {
		t.Fatal("overlapping siblings must be rejected: their self times would exceed the parent's wall")
	}
	outside := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "core.build", Start: 9 * ms, End: 11 * ms},
	}
	if _, err := SelfTimes(outside, 0); err == nil {
		t.Fatal("a child outside its parent must be rejected")
	}
}

func TestRecorderCallNests(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin("op", -1, 7)
	rec.Call("lang.parse", root, func() {
		rec.Call("inner", len(rec.Spans())-1, func() { time.Sleep(time.Millisecond) })
	})
	rec.End(root)
	self, err := SelfTimes(rec.Spans(), root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPartition(rec.Spans(), root, self); err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Spans() {
		if s.Req != 7 {
			t.Fatalf("span %s lost its request ID", s.Name)
		}
	}
}
