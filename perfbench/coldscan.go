package main

import (
	"fmt"
	"strings"
	"time"

	"canary"
	"canary/internal/workload"
)

// coldScanScale sizes the Table 1 catalogue: 214 to 35 902 generated lines.
const coldScanScale = 0.004

// A pass analyzes twenty shapes in equal shares, so every multiple of 5 %
// is a boundary between two shapes, where a nearest-rank quantile is the
// slowest run of one shape or the fastest of the next and jumps with any
// outlier. The reported quantiles are therefore shape midpoints: p52.5 is
// the median run of the eleventh-smallest shape and p97.5 that of the
// largest.
const (
	coldMedianP = 0.525
	coldTailP   = 0.975
)

// coldMinPasses is the number of catalogue passes a run makes at least:
// twenty passes of twenty subjects put ten samples beyond the p97.5.
const coldMinPasses = 20

// coldScan is a closed loop with one caller making one-shot
// canary.Analyze calls with default options and no session. Each pass
// analyzes every Table 1 subject once, with a fresh seed per pass and
// subject, so no source repeats. Set-up is a warm-up analysis of the
// largest subject, which also grows the heap to its working size. Each
// pass generates its sources first, then runs the host reference job,
// which collects that garbage first, so the collector's work on the
// harness's own strings is not charged to the smallest subject.
func coldScan(cfg config) (*runResult, error) {
	res := &runResult{metrics: make(map[string]float64)}
	opt := canary.DefaultOptions()
	projects := workload.Projects(coldScanScale)
	specFor := func(pass, i int) workload.Spec {
		s := projects[i].Spec
		s.Seed = cfg.seed*1_000_000 + int64(pass)*100 + int64(i)
		return s
	}

	var ref hostRef
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if err := ref.measure(); err != nil {
			return nil, err
		}
		spec := specFor(-1-k, len(projects)-1)
		src := workload.Generate(spec)
		w := startWatch()
		r, err := canary.Analyze(src, opt)
		_, cpu := w.elapsed()
		setups = append(setups, cpu.Seconds())
		if err != nil {
			return nil, fmt.Errorf("warm-up analysis: %w", err)
		}
		res.record(checkFindings(r.Reports, seededBugs(spec)))
	}

	var sp *spine
	var refMS []float64
	if cfg.traced {
		sp = newSpine(NewRecorder(), false)
	}
	heap := startHeapSampler()
	defer heap.Stop()
	var wall, cpu, smallest, peaks, klocPerS []float64
	var busy time.Duration
	start := time.Now()
	for pass := 0; time.Since(start) < cfg.seconds || (!cfg.traced && pass < coldMinPasses); pass++ {
		srcs := make([]string, len(projects))
		for i := range projects {
			srcs[i] = workload.Generate(specFor(pass, i))
		}
		if err := ref.measure(); err != nil {
			return nil, err
		}
		heap.takePeakMB()
		var passCPU time.Duration
		var passLines int
		for i, src := range srcs {
			w := startWatch()
			r, err := canary.Analyze(src, opt)
			dur, cpuDur := w.elapsed()
			busy += cpuDur
			passCPU += cpuDur
			wall = append(wall, ms(dur))
			cpu = append(cpu, ms(cpuDur))
			if i == 0 {
				smallest = append(smallest, ms(cpuDur))
			}
			passLines += strings.Count(src, "\n")
			if err == nil {
				err = checkFindings(r.Reports, seededBugs(specFor(pass, i)))
			}
			if err == nil && cfg.traced {
				refMS = append(refMS, ms(dur))
				var replay []canary.Report
				if replay, err = sp.open(len(refMS), src); err == nil {
					err = checkReplay(r.Reports, replay)
				}
			}
			res.record(err)
		}
		peaks = append(peaks, heap.takePeakMB())
		klocPerS = append(klocPerS, float64(passLines)/1000/passCPU.Seconds())
	}

	k := ref.scale()
	res.add("setup_norm_s", "setup_s", "s", median(setups)*k, fmt.Sprintf("median of %d warm-up analyses", len(setups)))
	res.add("scan_kloc_per_norm_s", "throughput_per_norm_s", "kloc/s", median(klocPerS)/k, fmt.Sprintf("median of %d passes", len(klocPerS)))
	res.addQuantile("analyze_norm_ms_p52.5", "op_norm_ms_median", Percentile(cpu, coldMedianP).Scaled(k))
	res.addQuantile("analyze_norm_ms_p97.5", "op_norm_ms_tail", Percentile(cpu, coldTailP).Scaled(k))
	res.addQuantile("smallest_analyze_norm_ms_p50", "fast_norm_ms_median", Percentile(smallest, 0.5).Scaled(k))
	res.add("analyses_per_norm_s", "", "1/s", float64(len(cpu))/busy.Seconds()/k, fmt.Sprintf("n=%d analyses", len(cpu)))
	ref.report(res)
	res.addQuantile("analyze_cpu_ms_p52.5", "", Percentile(cpu, coldMedianP))
	res.addQuantile("analyze_ms_p52.5", "", Percentile(wall, coldMedianP))
	res.addQuantile("analyze_ms_p97.5", "", Percentile(wall, coldTailP))
	res.add("peak_heap_mb", "peak_heap_mb", "MB", median(peaks), fmt.Sprintf("median of %d passes", len(peaks)))
	if cfg.traced {
		if err := finishTrace(cfg, "cold-scan", res, sp, refMS); err != nil {
			return nil, err
		}
	}
	return res, nil
}
