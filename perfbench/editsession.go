package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"canary"
	"canary/internal/workload"
)

// editSpec is the edit-session program: ~8000 generated lines with a few
// seeded bugs and traps, so the edit stream has real bugs to toggle.
func editSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "edit-session", Lines: 8000, Seed: seed,
		TruePositives: 4, CanaryFPs: 2, Fig2Traps: 3, OrderTraps: 2, LockTraps: 2, SaberTraps: 2, Fan: 3,
	}
}

// editTailP is the tail percentile of semantic saves. Their p95 moved by
// 30 % (interquartile range over ten runs) on a shared two-CPU machine,
// twice as much as their median; the p90 sits where samples are denser.
// The p95 is still printed in the table.
const editTailP = 0.90

// editMinSemantic is the number of semantic saves a run collects at
// least, so that the p95 has ten samples beyond it.
const editMinSemantic = 200

// editSession is a closed loop with one editor: one LiveSession under
// canary.NewSession() receives the seeded save stream, each save waiting
// for the previous delta. Set-up is the session open (the first full
// analysis), repeated on fresh sessions; the last one is kept.
func editSession(cfg config) (*runResult, error) {
	res := &runResult{metrics: make(map[string]float64)}
	ctx := context.Background()
	opt := canary.DefaultOptions()
	spec := editSpec(cfg.seed)
	stream, err := newEditStream(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	src := stream.source()

	var ref hostRef
	var setups []float64
	var live *canary.LiveSession
	var folded []canary.Report
	for k := 0; k < setupRepeats; k++ {
		if err := ref.measure(); err != nil {
			return nil, err
		}
		w := startWatch()
		l, d, err := canary.NewSession().Open(src, opt)
		_, cpu := w.elapsed()
		setups = append(setups, cpu.Seconds())
		if err != nil {
			return nil, fmt.Errorf("session open: %w", err)
		}
		if live != nil {
			live.Close()
		}
		live = l
		if folded, err = canary.FoldDelta(nil, d); err != nil {
			return nil, err
		}
	}
	defer live.Close()
	res.record(checkFindings(folded, stream.want))

	var sp *spine
	var refMS []float64
	if cfg.traced {
		sp = newSpine(NewRecorder(), true)
		if _, err := sp.open(0, src); err != nil {
			return nil, fmt.Errorf("traced open: %w", err)
		}
		sp.forget()
	}

	heap := startHeapSampler()
	defer heap.Stop()
	var semantic, semanticWall, trivial, trivialWall, peaks, savesPerS []float64
	var saves int
	start := time.Now()
	for time.Since(start) < cfg.seconds || (!cfg.traced && len(semantic) < editMinSemantic) {
		if err := ref.measure(); err != nil {
			return nil, err
		}
		var busy time.Duration
		for range saveBlock {
			sv := stream.next()
			if !sv.kind.semantic() {
				// A trivial save takes under a millisecond; a collection
				// of the semantic saves' garbage running beside it would
				// double its CPU time.
				runtime.GC()
			}
			w := startWatch()
			d, err := live.ApplyEdits(ctx, sv.edits)
			dur, cpu := w.elapsed()
			busy += cpu
			saves++
			if sv.kind.semantic() {
				semantic = append(semantic, ms(cpu))
				semanticWall = append(semanticWall, ms(dur))
			} else {
				trivial = append(trivial, ms(cpu))
				trivialWall = append(trivialWall, ms(dur))
			}
			if err == nil {
				folded, err = canary.FoldDelta(folded, d)
			}
			if err == nil && live.Source() != stream.source() {
				err = fmt.Errorf("save %d: session text differs from the stream's", saves)
			}
			if err == nil {
				err = checkFindings(live.Reports(), stream.want)
			}
			if err == nil && sv.kind.semantic() != d.Reanalyzed {
				err = fmt.Errorf("save %d: semantic=%v but reanalyzed=%v", saves, sv.kind.semantic(), d.Reanalyzed)
			}
			if err == nil && cfg.traced {
				refMS = append(refMS, ms(dur))
				var replay []canary.Report
				if replay, err = sp.edit(saves, sv.edits); err == nil {
					err = checkReplay(live.Reports(), replay)
				}
			}
			res.record(err)
		}
		peaks = append(peaks, heap.takePeakMB())
		savesPerS = append(savesPerS, float64(len(saveBlock))/busy.Seconds())
	}

	// The deltas folded over the whole run must equal, byte for byte, a
	// cold analysis of the final revision.
	cold, err := canary.Analyze(stream.source(), opt)
	if err == nil {
		var same bool
		if same, err = sameFindings(folded, cold.Reports); err == nil && !same {
			err = fmt.Errorf("folded deltas differ from a cold analysis of the final revision")
		}
	}
	res.record(err)

	k := ref.scale()
	sem := Summarize(semantic, editTailP)
	res.add("setup_norm_s", "setup_s", "s", median(setups)*k, fmt.Sprintf("median of %d session opens", len(setups)))
	res.addQuantile("semantic_save_norm_ms_p50", "op_norm_ms_median", sem.Median.Scaled(k))
	res.addQuantile("semantic_save_norm_ms_p90", "op_norm_ms_tail", sem.Tail.Scaled(k))
	res.addQuantile("semantic_save_norm_ms_p95", "", Percentile(semantic, 0.95).Scaled(k))
	res.addQuantile("trivial_save_norm_ms_p50", "fast_norm_ms_median", Percentile(trivial, 0.5).Scaled(k))
	res.add("saves_per_norm_s", "throughput_per_norm_s", "1/s", median(savesPerS)/k, fmt.Sprintf("median of %d ten-save blocks", len(savesPerS)))
	ref.report(res)
	res.addQuantile("semantic_save_cpu_ms_p50", "", sem.Median)
	res.addQuantile("semantic_save_ms_p50", "", Percentile(semanticWall, 0.5))
	res.addQuantile("semantic_save_ms_p90", "", Percentile(semanticWall, editTailP))
	res.addQuantile("trivial_save_ms_p50", "", Percentile(trivialWall, 0.5))
	res.add("peak_heap_mb", "peak_heap_mb", "MB", median(peaks), fmt.Sprintf("median of %d ten-save windows", len(peaks)))
	if cfg.traced {
		if err := finishTrace(cfg, "edit-session", res, sp, refMS); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkReplay fails when the traced replay's findings drift from those of
// the canary call it replaced: then the replay is not the program being
// measured, and its layer numbers mean nothing.
func checkReplay(want, replay []canary.Report) error {
	same, err := sameFindings(want, replay)
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("traced replay found %d reports, canary %d: %s",
			len(replay), len(want), strings.TrimSpace(firstDiff(want, replay)))
	}
	return nil
}

func firstDiff(a, b []canary.Report) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if fmt.Sprintf("%#v", a[i]) != fmt.Sprintf("%#v", b[i]) {
			return fmt.Sprintf("first difference at report %d: %s vs %s", i, a[i].Sink, b[i].Sink)
		}
	}
	return "one list is a prefix of the other"
}
