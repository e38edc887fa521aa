package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported as a number: with fewer, the "percentile" is one
// of a handful of extreme samples and moves with every outlier.
const minBeyond = 10

// Quantile is one percentile of a sample, by the nearest-rank rule (the
// smallest sample with at least P·N samples at or below it), together
// with the sample count behind it.
type Quantile struct {
	P      float64
	Value  float64
	N      int
	Beyond int // samples ranked strictly above this one
}

// Reportable says whether enough samples lie beyond the percentile for
// its value to mean anything.
func (q Quantile) Reportable() bool { return q.N > 0 && q.Beyond >= minBeyond }

// Name renders the percentile as it appears in metric names: p50, p95.
func (q Quantile) Name() string { return fmt.Sprintf("p%g", q.P*100) }

// String prints the value with its sample count, or flags the percentile
// when too few samples lie beyond it.
func (q Quantile) String() string {
	if !q.Reportable() {
		return fmt.Sprintf("unreported: %d of %d samples beyond %s (need %d)", q.Beyond, q.N, q.Name(), minBeyond)
	}
	return fmt.Sprintf("%.4f (n=%d)", q.Value, q.N)
}

// Percentile returns the nearest-rank p-quantile of xs (0 < p <= 1). xs
// is not modified.
func Percentile(xs []float64, p float64) Quantile {
	q := Quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	q.Value = s[rank-1]
	q.Beyond = len(s) - rank
	return q
}

// Scaled returns q with its value multiplied by k.
func (q Quantile) Scaled(k float64) Quantile {
	q.Value *= k
	return q
}

// Summary is the median and one named upper percentile of a sample.
type Summary struct {
	Median Quantile
	Tail   Quantile
}

// Summarize reports the median and the p-quantile of xs together.
func Summarize(xs []float64, p float64) Summary {
	return Summary{Median: Percentile(xs, 0.5), Tail: Percentile(xs, p)}
}

// median is the nearest-rank median of xs (0 for an empty sample).
func median(xs []float64) float64 { return Percentile(xs, 0.5).Value }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
