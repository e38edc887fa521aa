package bench

import (
	"fmt"
	"io"
	"math"
	"time"
)

// PrintFig7a renders the VFG-construction time comparison (Fig. 7a) as a
// text series: one row per subject ordered by size, one column per tool,
// "TIMEOUT" matching the paper's bars that hit the budget.
func PrintFig7a(w io.Writer, rs []SubjectResult) {
	fmt.Fprintln(w, "Fig. 7a — VFG construction time (subjects ordered by size)")
	fmt.Fprintf(w, "%-14s %8s %12s %12s %12s\n", "subject", "KLoC", "Saber", "Fsam", "Canary")
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %8.0f %12s %12s %12s\n", r.Name, r.KLoC,
			timeOrNA(r.Saber), timeOrNA(r.Fsam), timeOrNA(r.Canary))
	}
	sSpeed, fSpeed := speedups(rs)
	fmt.Fprintf(w, "geo-mean speedup of Canary: %.1fx vs Saber, %.1fx vs Fsam (subjects ≥%v where the baseline finished)\n",
		sSpeed, fSpeed, speedupFloor)
}

// speedupFloor excludes sub-noise subjects from the speedup statistic.
const speedupFloor = 5 * time.Millisecond

// PrintFig7b renders the memory comparison (Fig. 7b).
func PrintFig7b(w io.Writer, rs []SubjectResult) {
	fmt.Fprintln(w, "Fig. 7b — VFG construction memory (subjects ordered by size)")
	fmt.Fprintf(w, "%-14s %8s %12s %12s %12s\n", "subject", "KLoC", "Saber", "Fsam", "Canary")
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %8.0f %12s %12s %12s\n", r.Name, r.KLoC,
			memOrNA(r.Saber), memOrNA(r.Fsam), memOrNA(r.Canary))
	}
}

// PrintTable1 renders the bug-hunting comparison in the layout of the
// paper's Table 1, with the paper's own numbers alongside for reference.
func PrintTable1(w io.Writer, rs []SubjectResult) {
	fmt.Fprintln(w, "Table 1 — Results of bug hunting (measured | paper)")
	fmt.Fprintf(w, "%-14s %6s | %-17s | %-17s | %-21s | %s\n",
		"project", "KLoC", "Saber FP%/reports", "Fsam FP%/reports", "Canary FP/reports", "paper S/F/C")
	var totalReports, totalFPs int
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %6.0f | %-17s | %-17s | %-21s | %s/%s/%d(%dFP)\n",
			r.Name, r.KLoC,
			fpOrNA(r.Saber), fpOrNA(r.Fsam),
			fmt.Sprintf("%d / %d", r.Canary.FPs, r.Canary.Reports),
			naInt(r.PaperSaberReports), naInt(r.PaperFsamReports),
			r.PaperCanaryReports, r.PaperCanaryFPs)
		totalReports += r.Canary.Reports
		totalFPs += r.Canary.FPs
	}
	rate := 0.0
	if totalReports > 0 {
		rate = 100 * float64(totalFPs) / float64(totalReports)
	}
	fmt.Fprintf(w, "Canary totals: %d reports, %d FPs (%.2f%%); paper: 15 reports, 4 FPs (26.67%%)\n",
		totalReports, totalFPs, rate)
}

// PrintFig8 renders the scalability sweep and its linear fits.
func PrintFig8(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Fig. 8 — Scalability of Canary for bug hunting")
	fmt.Fprintf(w, "%10s %12s %12s %8s\n", "KLoC", "time", "memory", "reports")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%10.2f %12s %12s %8d\n", p.KLoC,
			p.Time.Round(time.Millisecond), fmtBytes(p.PeakMem), p.Reports)
	}
	fmt.Fprintf(w, "time  fit: %.4f ms/KLoC + %.1f  (R²=%.3f)\n",
		res.TimeSlope, res.TimeIntercept, res.TimeR2)
	fmt.Fprintf(w, "mem   fit: %s/KLoC + %s  (R²=%.3f)\n",
		fmtBytes(uint64(maxF(res.MemSlope, 0))), fmtBytes(uint64(maxF(res.MemIntercept, 0))), res.MemR2)
	fmt.Fprintln(w, "paper fits: time 0.0326 min/KLoC (R²=0.83), memory 0.0193 GB/KLoC (R²=0.78)")
}

// PrintParallel renders the worker sweep.
func PrintParallel(w io.Writer, res ParallelResult) {
	fmt.Fprintf(w, "Parallel pipeline — worker sweep (%d-line subject, medians of %d runs)\n", res.Lines, parallelReps)
	fmt.Fprintf(w, "%8s %12s %12s %8s %8s\n", "workers", "build", "check", "speedup", "reports")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%8d %12s %12s %7.2fx %8d\n", p.Workers,
			p.BuildTime, p.CheckTime, p.Speedup, p.Reports)
	}
}

// PrintServe renders the service-mode experiment: what the result store
// saw in the cold and warm phases, and the refusal paths it passed.
func PrintServe(w io.Writer, res ServeResult) {
	fmt.Fprintf(w, "Service mode — canaryd, %d clients × %d requests (%d-line subjects)\n",
		res.Clients, res.PerClient, res.Lines)
	fmt.Fprintf(w, "%6s %9s %7s %8s %8s\n", "phase", "requests", "cached", "hits", "misses")
	row := func(name string, p ServePhase) {
		fmt.Fprintf(w, "%6s %9d %7d %8d %8d\n", name, p.Requests, p.Cached, p.CacheHits, p.CacheMisses)
	}
	row("cold", res.Cold)
	row("warm", res.Warm)
	fmt.Fprintf(w, "daemon == CLI on %d report(s); 413 on an oversized body; 503 + Retry-After admitted after %d retries; SIGTERM exit 0\n",
		res.CLIReports, res.Retries)
}

// PrintIncremental renders the one-edit incremental re-analysis experiment.
func PrintIncremental(w io.Writer, res IncrementalResult) {
	fmt.Fprintf(w, "Incremental analysis — one-statement edit (%d-line subject, %d functions)\n",
		res.Lines, res.Funcs)
	fmt.Fprintf(w, "%6s %18s %14s\n", "run", "summaries reused", "trivial solves")
	fmt.Fprintf(w, "%6s %18s %14s\n", "cold", fmt.Sprintf("0/%d", res.Funcs), "-")
	fmt.Fprintf(w, "%6s %18s %14d\n",
		"warm", fmt.Sprintf("%d/%d", res.SummaryHits, res.Funcs), res.TrivialSolves)
	fmt.Fprintf(w, "%d/%d functions reanalyzed; warm output byte-identical to cold\n",
		res.FuncsReanalyzed, res.Funcs)
}

// speedups returns the geometric-mean build-time speedups of Canary over
// each baseline, counting only subjects the baseline finished.
func speedups(rs []SubjectResult) (vsSaber, vsFsam float64) {
	geo := func(sel func(SubjectResult) ToolRun) float64 {
		prod, n := 1.0, 0
		for _, r := range rs {
			b := sel(r)
			if b.TimedOut || r.Canary.BuildTime < speedupFloor || b.BuildTime <= 0 {
				continue
			}
			prod *= float64(b.BuildTime) / float64(r.Canary.BuildTime)
			n++
		}
		if n == 0 {
			return 0
		}
		return math.Pow(prod, 1/float64(n))
	}
	return geo(func(r SubjectResult) ToolRun { return r.Saber }),
		geo(func(r SubjectResult) ToolRun { return r.Fsam })
}

func timeOrNA(t ToolRun) string {
	if t.TimedOut {
		return "TIMEOUT"
	}
	return t.BuildTime.Round(time.Millisecond).String()
}

func memOrNA(t ToolRun) string {
	if t.TimedOut {
		return "TIMEOUT"
	}
	return fmtBytes(t.BuildMem)
}

func fpOrNA(t ToolRun) string {
	if t.TimedOut {
		return "NA"
	}
	return fmt.Sprintf("%.1f%% / %d", t.FPRate(), t.Reports)
}

func naInt(v int) string {
	if v < 0 {
		return "NA"
	}
	return fmt.Sprintf("%d", v)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PrintPersist renders the warm-restart experiment: each phase is a fresh
// process, so every reuse in the warm rows was fed from the disk store.
func PrintPersist(w io.Writer, res PersistResult) {
	fmt.Fprintf(w, "Persistent warm state — fresh-process restarts (%d-line subject)\n", res.Lines)
	fmt.Fprintf(w, "%-12s %18s %11s %12s\n",
		"phase", "summaries reused", "disk hits", "disk writes")
	row := func(name string, ph PersistPhase) {
		total := ph.SummaryHits + ph.FuncsReanalyzed
		fmt.Fprintf(w, "%-12s %18s %11d %12d\n",
			name, fmt.Sprintf("%d/%d", ph.SummaryHits, total),
			ph.DiskHits, ph.DiskWrites)
	}
	row("cold", res.Cold)
	row("warm", res.Warm)
	row("edited-cold", res.EditedCold)
	row("edited-warm", res.EditedWarm)
	fmt.Fprintf(w, "store: %d entries, %d bytes; both warm runs byte-identical to cold; summary reuse after edit+restart: %.1f%%\n",
		res.Warm.DiskEntries, res.Warm.DiskBytes, 100*res.SummaryReuse)
}

// PrintSessions renders the edit-native session experiment: the wire
// delta of every accepted edit.
func PrintSessions(w io.Writer, res SessionsResult) {
	fmt.Fprintf(w, "Live sessions — canaryd deltas (%d-line subject, %d scripted saves and a fix)\n",
		res.Lines, res.Edits)
	fmt.Fprintf(w, "open: %d finding(s); after the saves: %d\n", res.OpenFindings, res.StreamFindings)
	fmt.Fprintf(w, "%-5s %-9s %11s %9s %12s %7s %9s %10s\n",
		"seq", "kind", "reanalyzed", "funcs", "invalidated", "added", "resolved", "unchanged")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%-5d %-9s %11v %9s %12d %7d %9d %10d\n",
			s.Seq, s.Kind, s.Reanalyzed,
			fmt.Sprintf("%d/%d", s.FuncsReanalyzed, s.SummaryHits+s.FuncsReanalyzed),
			s.Invalidated, s.Added, s.Resolved, s.Unchanged)
	}
	fmt.Fprintln(w, "folds byte-identical to GET findings and to cold analyses; 409, 400, 422 refusals, TTL eviction, SIGTERM exit 0")
}
