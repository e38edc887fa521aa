package main

import (
	"math"
	"testing"
)

func TestRefJobRuns(t *testing.T) {
	if err := refJob(); err != nil {
		t.Fatal(err)
	}
	var h hostRef
	for i := 0; i < 3; i++ {
		if err := h.measure(); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.cpuMS) != 3 || h.cpuMS[0] <= 0 {
		t.Fatalf("samples = %v, want 3 positive CPU times", h.cpuMS)
	}
}

func TestRefScaleUsesMedian(t *testing.T) {
	// A host on which the job takes 20 ms is twice as slow as the
	// nominal 10 ms one, whatever a single outlier read.
	h := hostRef{cpuMS: []float64{20, 90, 19, 21, 20}}
	if got := h.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("scale = %v, want 0.5", got)
	}
}
