package main

import (
	"context"
	"testing"

	"canary"
	"canary/internal/workload"
)

// The stream's expected findings must follow every bug toggle, and the
// folded deltas must end equal to a cold analysis of the final text.
func TestEditStreamTracksGroundTruth(t *testing.T) {
	spec := workload.Spec{Name: "edits", Lines: 600, Seed: 3, TruePositives: 3, CanaryFPs: 1, Fig2Traps: 1, OrderTraps: 1, Fan: 2}
	stream, err := newEditStream(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	live, d, err := canary.NewSession().Open(stream.source(), canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	folded, err := canary.FoldDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[saveKind]int)
	var added, resolved int
	for i := 0; i < 6*len(saveBlock); i++ {
		sv := stream.next()
		kinds[sv.kind]++
		d, err := live.ApplyEdits(context.Background(), sv.edits)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if d.Reanalyzed != sv.kind.semantic() {
			t.Fatalf("save %d (kind %d): reanalyzed=%v", i, sv.kind, d.Reanalyzed)
		}
		added += len(d.Added)
		resolved += len(d.Resolved)
		if folded, err = canary.FoldDelta(folded, d); err != nil {
			t.Fatal(err)
		}
		if live.Source() != stream.source() {
			t.Fatalf("save %d: session text differs from the stream's", i)
		}
		if err := checkFindings(live.Reports(), stream.want); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if kinds[saveTrivial] != 30 || kinds[saveLeaf] != 12 || kinds[saveModule] != 12 || kinds[saveToggle] != 6 {
		t.Fatalf("save mix %v, want 30/12/12/6", kinds)
	}
	if added == 0 || resolved == 0 {
		t.Fatalf("bug toggles produced %d added and %d resolved findings, want both", added, resolved)
	}
	cold, err := canary.Analyze(stream.source(), canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if same, err := sameFindings(folded, cold.Reports); err != nil || !same {
		t.Fatalf("folded deltas differ from a cold analysis (err %v)", err)
	}
}
