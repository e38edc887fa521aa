package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"time"

	"canary/internal/core"
	"canary/internal/workload"
)

// parallelReps is how many times each worker count builds and checks the
// subject; its times are the medians.
const parallelReps = 5

// ParallelPoint is one worker-count observation of the full pipeline
// (parallel VFG build + deterministic checking pool) on one subject.
type ParallelPoint struct {
	Workers int
	// BuildTime and CheckTime are medians of parallelReps runs, to the µs.
	BuildTime time.Duration
	CheckTime time.Duration
	// Speedup is the 1-worker wall time divided by this point's wall time.
	Speedup float64
	Reports int
}

// ParallelResult is the worker sweep.
type ParallelResult struct {
	Lines  int
	Points []ParallelPoint
}

// RunParallel sweeps the pipeline over workerCounts on one subject. An
// untimed 1-worker run first warms the process up and gives the reference
// reports: every timed run's reports must encode byte for byte like
// them (the pools are deterministic, so the sweep compares equal work),
// and a difference is an ErrGate failure.
func (e *Experiments) RunParallel(spec workload.Spec, workerCounts []int) (ParallelResult, error) {
	res := ParallelResult{Lines: spec.Lines}
	_, _, want, _, err := e.parallelRun(spec, 1)
	if err != nil {
		return res, err
	}
	var base time.Duration
	for _, n := range workerCounts {
		builds := make([]time.Duration, parallelReps)
		checks := make([]time.Duration, parallelReps)
		pt := ParallelPoint{Workers: n}
		for rep := range builds {
			var got []byte
			builds[rep], checks[rep], got, pt.Reports, err = e.parallelRun(spec, n)
			if err != nil {
				return res, err
			}
			if !bytes.Equal(got, want) {
				return res, gatef("parallel: %d-worker reports (run %d) differ from the 1-worker run's", n, rep+1)
			}
		}
		pt.BuildTime = medianDuration(builds)
		pt.CheckTime = medianDuration(checks)
		total := pt.BuildTime + pt.CheckTime
		if len(res.Points) == 0 {
			base = total
		}
		if total > 0 {
			pt.Speedup = float64(base) / float64(total)
		}
		res.Points = append(res.Points, pt)
		e.logf("  parallel workers=%d: build=%v check=%v speedup=%.2fx reports=%d (medians of %d)\n",
			n, pt.BuildTime, pt.CheckTime, pt.Speedup, pt.Reports, parallelReps)
	}
	return res, nil
}

// parallelRun lowers the subject, then times one build and one check at
// n workers; it returns the reports' JSON encoding and their count.
func (e *Experiments) parallelRun(spec workload.Spec, n int) (build, check time.Duration, reports []byte, count int, err error) {
	prog, err := lowerSubject(spec)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	bopt := core.DefaultBuild()
	bopt.Workers = n
	t0 := time.Now()
	b := core.Build(prog, bopt)
	build = time.Since(t0)
	copt := core.DefaultCheck()
	copt.Checkers = []string{e.checker()}
	copt.Workers = n
	t0 = time.Now()
	rs, _ := b.Check(copt)
	check = time.Since(t0)
	reports, err = json.Marshal(rs)
	return build, check, reports, len(rs), err
}

// medianDuration is the median of ds (the upper one of an even count),
// rounded to the microsecond.
func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2].Round(time.Microsecond)
}
