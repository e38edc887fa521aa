package bench

import (
	"time"

	"canary/internal/core"
	"canary/internal/workload"
)

// ParallelPoint is one worker-count observation of the full pipeline
// (parallel VFG build + deterministic checking pool) on one subject.
type ParallelPoint struct {
	Workers   int
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

// RunParallel sweeps the pipeline over workerCounts on one subject.
// Reports are identical at every worker count (the pools are
// deterministic), so the sweep compares equal work.
func (e *Experiments) RunParallel(spec workload.Spec, workerCounts []int) (ParallelResult, error) {
	res := ParallelResult{Lines: spec.Lines}
	var base time.Duration
	for _, n := range workerCounts {
		prog, err := lowerSubject(spec)
		if err != nil {
			return res, err
		}
		bopt := core.DefaultBuild()
		bopt.Workers = n
		t0 := time.Now()
		b := core.Build(prog, bopt)
		buildTime := time.Since(t0)
		copt := core.DefaultCheck()
		copt.Checkers = []string{e.checker()}
		copt.Workers = n
		t0 = time.Now()
		reports, _ := b.Check(copt)
		checkTime := time.Since(t0)

		pt := ParallelPoint{
			Workers: n, BuildTime: buildTime, CheckTime: checkTime,
			Reports: len(reports),
		}
		total := buildTime + checkTime
		if len(res.Points) == 0 {
			base = total
		}
		if total > 0 {
			pt.Speedup = float64(base) / float64(total)
		}
		res.Points = append(res.Points, pt)
		e.logf("  parallel workers=%d: build=%v check=%v speedup=%.2fx reports=%d\n",
			n, buildTime.Round(time.Millisecond), checkTime.Round(time.Millisecond),
			pt.Speedup, len(reports))
	}
	return res, nil
}
