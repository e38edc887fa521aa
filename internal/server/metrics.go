package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"canary/internal/pipeline"
)

// histogram is a fixed-bucket cumulative latency histogram in the
// Prometheus text exposition style: bucket counters are monotonically
// increasing and keyed by an inclusive upper bound ("le"), with a +Inf
// overflow bucket, a sum, and a count. All operations are lock-free.
type histogram struct {
	bounds []float64       // upper bounds in seconds, ascending
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sumUS  atomic.Uint64   // sum of observations in microseconds
	count  atomic.Uint64
}

// stageBuckets covers the daemon's expected latency range: sub-millisecond
// cache hits up to multi-second whole-program analyses.
func stageBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := len(h.bounds)
	for j, b := range h.bounds {
		if secs <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.sumUS.Add(uint64(d.Microseconds()))
	h.count.Add(1)
}

// writeTo emits the histogram as name_bucket{stage="...",le="..."} lines
// plus the _sum and _count series.
func (h *histogram) writeTo(w io.Writer, name, stage string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{stage=%q,le=%q} %d\n", name, stage, fmt.Sprintf("%g", b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, stage, cum)
	fmt.Fprintf(w, "%s_sum{stage=%q} %.6f\n", name, stage, float64(h.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count{stage=%q} %d\n", name, stage, h.count.Load())
}

// metrics aggregates the daemon's observable state. Job counters are
// owned here; cache and interner counters are read from their sources at
// scrape time (see Server.writeMetrics).
type metrics struct {
	accepted    atomic.Uint64 // submissions admitted (queued or cache-served)
	completed   atomic.Uint64 // jobs finished with a result (incl. cache-served)
	failed      atomic.Uint64 // jobs finished with an error (incl. deadline)
	rejected    atomic.Uint64 // submissions refused (queue full or draining)
	cacheServed atomic.Uint64 // completions answered by the content store
	running     atomic.Int64  // jobs currently inside the analysis pipeline

	// The fleet-facing counters: batch envelope traffic and submissions
	// answered by an already-in-flight job (single-flight dedup).
	batchRequests atomic.Uint64
	batchItems    atomic.Uint64
	coalesced     atomic.Uint64

	// trivialSolves accumulates CheckStats.TrivialSolves across jobs: SMT
	// queries settled by the pre-CNF constant-folding/unit-propagation fast
	// path. (Summary store counters live on the shared Session and are
	// read at scrape time.)
	trivialSolves atomic.Uint64

	// The governance observables, accumulated from each completed job's
	// stats: per-dimension budget exhaustions (keyed by the pipeline
	// registry's budget dimensions) and panics recovered at the worker or
	// checker level. Session-level recoveries and quarantines live on the
	// shared Session and are added at scrape time.
	budget          map[string]*atomic.Uint64
	panicsRecovered atomic.Uint64

	// The live-session counters: opens, explicit closes, TTL and LRU
	// evictions, edit batches (accepted / refused / representation-only
	// fast path). The open-session gauge is read from the registry at
	// scrape time; per-edit latency lands in editLatency.
	sessionsOpened     atomic.Uint64
	sessionsClosed     atomic.Uint64
	sessionsEvictedTTL atomic.Uint64
	sessionsEvictedLRU atomic.Uint64
	sessionEdits       atomic.Uint64
	sessionEditsRej    atomic.Uint64
	sessionTrivial     atomic.Uint64
	editLatency        *histogram

	// Per-stage latency histograms, one per pipeline registry stage
	// (parse/lower/pta/datadep/interference/mhp/vfg/check), fed from each
	// completed job's Result.Trace spans; "total" is the job's wall time
	// inside the worker (whole pipeline + encode).
	stage map[string]*histogram
	total *histogram
}

func newMetrics() *metrics {
	m := &metrics{
		budget:      make(map[string]*atomic.Uint64),
		stage:       make(map[string]*histogram),
		total:       newHistogram(stageBuckets()),
		editLatency: newHistogram(stageBuckets()),
	}
	for _, dim := range pipeline.BudgetDimensions() {
		m.budget[dim] = new(atomic.Uint64)
	}
	for _, st := range pipeline.Stages() {
		m.stage[st.MetricsLabel()] = newHistogram(stageBuckets())
	}
	return m
}
