package main

import (
	"testing"

	"canary"
	"canary/internal/workload"
)

// The replay must be the program being measured: its findings equal
// canary.Analyze's, cold and warm, and its spans partition each operation.
func TestReplayMatchesAnalyze(t *testing.T) {
	spec := workload.Projects(coldScanScale)[4].Spec
	src := workload.Generate(spec)
	want, err := canary.Analyze(src, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		sp := newSpine(NewRecorder(), warm)
		for req := 1; req <= 2; req++ {
			got, err := sp.open(req, src)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkReplay(want.Reports, got); err != nil {
				t.Fatalf("warm=%v op %d: %v", warm, req, err)
			}
		}
		layers, err := sp.layerMetrics()
		if err != nil {
			t.Fatal(err)
		}
		if layers["lang.parse_ms"] <= 0 || layers["core.build_ms"] <= 0 || layers["core.check_ms"] <= 0 {
			t.Fatalf("warm=%v: layer times missing: %v", warm, layers)
		}
		if warm && layers["pta.summary_hits"] == 0 {
			t.Fatal("a warm replay of the same program must hit the summary store")
		}
	}
}

func TestReplayDriftFailsRun(t *testing.T) {
	src := workload.Generate(tinySpec)
	want, err := canary.Analyze(src, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	replay, err := newSpine(NewRecorder(), false).open(1, src)
	if err != nil {
		t.Fatal(err)
	}
	drifted := append([]canary.Report(nil), replay...)
	drifted[0].Sink.Line++
	var o outcome
	o.record(checkReplay(want.Reports, replay))
	o.record(checkReplay(want.Reports, drifted))
	o.record(checkReplay(want.Reports, replay[:0]))
	if o.attempted != 3 || o.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2: a drifted or missing finding must fail the run", o.attempted, o.failed)
	}
}
