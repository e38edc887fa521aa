package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	s := Summarize(seq(200), 0.95)
	if s.Median.Value != 100 || s.Median.N != 200 || s.Median.Beyond != 100 {
		t.Fatalf("median = %+v, want value 100, n 200, 100 beyond", s.Median)
	}
	if s.Tail.Value != 190 || s.Tail.N != 200 || s.Tail.Beyond != 10 {
		t.Fatalf("p95 = %+v, want value 190, n 200, 10 beyond", s.Tail)
	}
	if !s.Tail.Reportable() {
		t.Fatal("p95 with 10 samples beyond must be reportable")
	}
	if got := s.Tail.String(); got != "190.0000 (n=200)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPercentileFlagsThinTail(t *testing.T) {
	q := Percentile(seq(100), 0.95)
	if q.Beyond != 5 {
		t.Fatalf("beyond = %d, want 5", q.Beyond)
	}
	if q.Reportable() {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be flagged")
	}
	if got := q.String(); !strings.HasPrefix(got, "unreported:") || !strings.Contains(got, "5 of 100") {
		t.Fatalf("String() = %q, want an unreported flag naming 5 of 100", got)
	}
	if Percentile(nil, 0.5).Reportable() {
		t.Fatal("an empty sample is never reportable")
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}
