package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"canary"
	"canary/internal/cache"
	"canary/internal/core"
	"canary/internal/digest"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/mhp"
	"canary/internal/pta"
	"canary/internal/smt"
	"canary/internal/vfg"
)

// The traced run replaces each top-level operation with the analysis
// spine session.go runs, called layer by layer through each layer's
// public function, with a span around every call. No number comes from
// canary's own Result.Trace: its vfg span double-counts the build's
// sub-stages, so the benchmark times the layers itself.

// spanNames lists every span the replay records, in spine order. Each
// becomes a per-layer "<name>_ms" self-time metric.
var spanNames = []string{
	"bench.op", "digest.apply", "digest.canon", "lang.parse", "digest.keys",
	"digest.invalidate", "pta.summaries", "ir.lower", "mhp.analyze",
	"core.build", "core.replay", "core.datadep_seq", "core.interference_seq",
	"core.check", "canary.diff_reports",
}

// Per-operation work counters of the replay, averaged into per-layer
// metrics. Allocation volumes are runtime.MemStats deltas around a call.
var counterNames = []string{
	"lang.funcs", "lang.alloc_mb", "ir.insts", "ir.alloc_mb",
	"core.build_alloc_mb", "core.rounds", "core.vfg_edges",
	"core.datadep_edges", "core.interference_edges",
	"guard.intern_hits", "guard.intern_misses",
	"digest.invalidated_funcs", "pta.summary_hits", "pta.summary_misses",
	"core.verdict_hits", "core.pairs_rechecked", "core.paths_examined",
	"core.solver_queries", "core.trivial_solves", "core.fact_decided",
	"core.smt_cache_hits", "canary.delta_added", "canary.delta_resolved",
}

// spine is the replay's state across operations: the warm stores a
// canary.Session would hold (nil for session-less cold scans) and the
// current revision's text, keys and findings, which edits start from.
type spine struct {
	rec       *Recorder
	opt       canary.Options
	summaries *pta.Store
	verdicts  *smt.VerdictStore

	src      string
	canon    string
	keys     map[string]cache.Key
	reports  []canary.Report
	counters map[string]float64 // summed over operations
	ops      int
}

func newSpine(rec *Recorder, warm bool) *spine {
	sp := &spine{rec: rec, opt: canary.DefaultOptions(), counters: make(map[string]float64)}
	if warm {
		sp.summaries = pta.NewStore(0)
		sp.verdicts = smt.NewVerdictStore(0)
	}
	return sp
}

func (sp *spine) count(name string, v float64) { sp.counters[name] += v }

// forget drops the spans and counters recorded so far but keeps the warm
// state, so that priming the replay is not measured.
func (sp *spine) forget() {
	sp.rec = NewRecorder()
	sp.counters = make(map[string]float64)
	sp.ops = 0
}

func allocMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// open replays an analysis of src as LiveSession.Open (and so one-shot
// Analyze and canaryd's jobs) runs it, returning the findings.
func (sp *spine) open(req int, src string) ([]canary.Report, error) {
	op := sp.rec.Begin("bench.op", -1, req)
	defer sp.rec.End(op)
	sp.ops++
	ast, err := sp.parse(op, src)
	if err != nil {
		return nil, err
	}
	var keys map[string]cache.Key
	if sp.summaries != nil {
		sp.rec.Call("digest.keys", op, func() { keys = digest.SummaryKeys(ast) })
	}
	reports, err := sp.analyze(op, ast, keys)
	if err != nil {
		return nil, err
	}
	sp.rec.Call("digest.canon", op, func() { sp.canon = digest.CanonicalSource(src) })
	sp.diff(op, nil, reports)
	sp.src, sp.keys, sp.reports = src, keys, reports
	return reports, nil
}

// edit replays LiveSession.ApplyEdits: patch, compare canonical sources,
// and only on a real change parse, re-key, and re-run the warm spine.
func (sp *spine) edit(req int, edits []canary.Edit) ([]canary.Report, error) {
	op := sp.rec.Begin("bench.op", -1, req)
	defer sp.rec.End(op)
	sp.ops++
	dEdits := make([]digest.Edit, len(edits))
	for i, e := range edits {
		dEdits[i] = digest.Edit{Start: e.Start, End: e.End, Text: e.Text}
	}
	var patched, canon string
	var err error
	sp.rec.Call("digest.apply", op, func() { patched, err = digest.ApplyEdits(sp.src, dEdits) })
	if err != nil {
		return nil, err
	}
	sp.rec.Call("digest.canon", op, func() { canon = digest.CanonicalSource(patched) })
	if canon == sp.canon {
		sp.src = patched
		return sp.reports, nil
	}
	ast, err := sp.parse(op, patched)
	if err != nil {
		return nil, err
	}
	var keys map[string]cache.Key
	sp.rec.Call("digest.keys", op, func() { keys = digest.SummaryKeys(ast) })
	var invalidated []string
	sp.rec.Call("digest.invalidate", op, func() { invalidated = digest.Invalidated(sp.keys, keys) })
	sp.count("digest.invalidated_funcs", float64(len(invalidated)))
	reports, err := sp.analyze(op, ast, keys)
	if err != nil {
		return nil, err
	}
	sp.diff(op, sp.reports, reports)
	sp.src, sp.canon, sp.keys, sp.reports = patched, canon, keys, reports
	return reports, nil
}

func (sp *spine) parse(op int, src string) (*lang.Program, error) {
	var ast *lang.Program
	var err error
	sp.count("lang.alloc_mb", allocMB(func() {
		sp.rec.Call("lang.parse", op, func() { ast, err = lang.Parse(src) })
	}))
	if err != nil {
		return nil, err
	}
	sp.count("lang.funcs", float64(len(ast.Funcs)))
	return ast, nil
}

func (sp *spine) diff(op int, prev, next []canary.Report) {
	var d *canary.FindingsDelta
	sp.rec.Call("canary.diff_reports", op, func() { d = canary.DiffReports(prev, next) })
	sp.count("canary.delta_added", float64(len(d.Added)))
	sp.count("canary.delta_resolved", float64(len(d.Resolved)))
}

// analyze runs summarize → lower → MHP → build → check, plus the
// sequential fixpoint replay that splits the build into its Alg. 1 and
// Alg. 2 shares.
func (sp *spine) analyze(op int, ast *lang.Program, keys map[string]cache.Key) ([]canary.Report, error) {
	ctx := context.Background()
	opt := sp.opt
	hits0, misses0 := guard.InternStats()
	defer func() {
		hits1, misses1 := guard.InternStats()
		sp.count("guard.intern_hits", float64(hits1-hits0))
		sp.count("guard.intern_misses", float64(misses1-misses0))
	}()

	var sums map[string]*pta.Summary
	var hits, reanalyzed int
	var err error
	sp.rec.Call("pta.summaries", op, func() {
		sums, hits, reanalyzed, err = pta.SummariesKeyedContext(ctx, ast, keys, sp.summaries)
	})
	if err != nil {
		return nil, err
	}
	sp.count("pta.summary_hits", float64(hits))
	sp.count("pta.summary_misses", float64(reanalyzed))

	var prog *ir.Program
	sp.count("ir.alloc_mb", allocMB(func() {
		sp.rec.Call("ir.lower", op, func() {
			prog, err = ir.Lower(ast, ir.Options{
				UnrollDepth: opt.UnrollDepth,
				InlineDepth: opt.InlineDepth,
				Entry:       opt.Entry,
				Summaries:   sums,
			})
		})
	}))
	if err != nil {
		return nil, err
	}
	sp.count("ir.insts", float64(prog.NumInsts()))

	// The builder runs mhp.Analyze itself; this separate call times it.
	sp.rec.Call("mhp.analyze", op, func() { mhp.Analyze(prog) })

	bopt := core.BuildOptions{
		EnableMHP:       opt.EnableMHP,
		GuardCap:        opt.GuardCap,
		MaxIterations:   opt.Budgets.MaxFixpointRounds,
		Workers:         opt.Workers,
		SummaryHits:     hits,
		FuncsReanalyzed: reanalyzed,
	}
	var b *core.Builder
	sp.count("core.build_alloc_mb", allocMB(func() {
		sp.rec.Call("core.build", op, func() { b, err = core.BuildContext(ctx, prog, bopt) })
	}))
	if err != nil {
		return nil, err
	}
	st := b.Stats
	sp.count("core.rounds", float64(st.Iterations))
	sp.count("core.vfg_edges", float64(b.G.NumEdges()))
	sp.count("core.datadep_edges", float64(st.DataDepEdges))
	sp.count("core.interference_edges", float64(st.InterferenceEdges))
	if err := sp.replayFixpoint(op, prog, bopt, st); err != nil {
		return nil, err
	}

	var reports []core.Report
	var cst core.CheckStats
	sp.rec.Call("core.check", op, func() {
		reports, cst, err = b.CheckContext(ctx, core.CheckOptions{
			Checkers:             opt.Checkers,
			RequireInterThread:   opt.RequireInterThread,
			LockOrder:            opt.LockOrder,
			CondVarOrder:         opt.CondVarOrder,
			MemoryModel:          core.MemSC,
			FactPropagation:      opt.FactPropagation,
			Workers:              opt.Workers,
			CubeAndConquer:       opt.CubeAndConquer,
			MaxConflicts:         opt.MaxConflicts,
			MaxDFSSteps:          opt.Budgets.MaxDFSSteps,
			ExplicitSearchBudget: opt.Budgets.MaxDFSSteps > 0,
			MaxFormulaNodes:      opt.Budgets.MaxFormulaNodes,
			Verdicts:             sp.verdicts,
		})
	})
	if err != nil {
		return nil, err
	}
	sp.count("core.verdict_hits", float64(cst.VerdictHits))
	sp.count("core.pairs_rechecked", float64(cst.PairsRechecked))
	sp.count("core.paths_examined", float64(cst.PathsExamined))
	sp.count("core.solver_queries", float64(cst.SolverQueries))
	sp.count("core.trivial_solves", float64(cst.TrivialSolves))
	sp.count("core.fact_decided", float64(cst.FactDecided))
	sp.count("core.smt_cache_hits", float64(cst.CacheHits))
	return publicReports(reports), nil
}

// replayFixpoint re-runs the build's fixpoint sequentially, one Alg. 1
// and one Alg. 2 round at a time, so each gets its own span, and checks
// that the replay reaches the edge counts the real build did.
func (sp *spine) replayFixpoint(op int, prog *ir.Program, bopt core.BuildOptions, want core.BuildStats) error {
	replay := sp.rec.Begin("core.replay", op, sp.rec.spans[op].Req)
	defer sp.rec.End(replay)
	rb := core.NewBenchBuilder(prog, bopt)
	rounds := bopt.MaxIterations
	if rounds <= 0 {
		rounds = core.DefaultBuild().MaxIterations
	}
	for i := 0; i < rounds; i++ {
		var dd, in bool
		sp.rec.Call("core.datadep_seq", replay, func() { dd = rb.BenchDataDepRound() })
		sp.rec.Call("core.interference_seq", replay, func() { in = rb.BenchInterferenceRound() })
		if !dd && !in {
			break
		}
	}
	byKind := rb.G.EdgeCountByKind()
	if byKind[vfg.EdgeDD] != want.DataDepEdges || byKind[vfg.EdgeInterference] != want.InterferenceEdges {
		return fmt.Errorf("sequential fixpoint replay reached %d datadep / %d interference edges, the build %d / %d",
			byKind[vfg.EdgeDD], byKind[vfg.EdgeInterference], want.DataDepEdges, want.InterferenceEdges)
	}
	return nil
}

// publicReports converts the checker's reports to canary's public form,
// field for field as canary's own result assembly does, so a replay can
// be compared byte for byte with canary.Analyze.
func publicReports(reports []core.Report) []canary.Report {
	var out []canary.Report
	for _, r := range reports {
		pub := canary.Report{
			Kind:    r.Kind,
			Source:  canary.Site{Fn: r.Source.Fn, Line: r.Source.Line, Thread: r.Source.Thread, Desc: r.Source.Desc},
			Sink:    canary.Site{Fn: r.Sink.Fn, Line: r.Sink.Line, Thread: r.Sink.Thread, Desc: r.Sink.Desc},
			Guard:   r.Guard,
			Decided: r.Result == smt.Sat,
			Reason:  r.Reason,
		}
		if pub.Decided {
			pub.Verdict = canary.VerdictRealizable
		} else {
			pub.Verdict = canary.VerdictInconclusive
			if pub.Reason == "" {
				pub.Reason = "budget-exhausted: solve"
			}
		}
		for _, p := range r.Path {
			pub.Trace = append(pub.Trace, p.Desc)
		}
		for _, s := range r.Schedule {
			pub.Schedule = append(pub.Schedule, fmt.Sprintf("%s [thread %d]", s.Desc, s.Thread))
		}
		out = append(out, pub)
	}
	return out
}

// sameFindings reports whether two finding lists are byte-identical in
// their JSON encoding, the form canaryd serves and the determinism
// contract is stated in.
func sameFindings(a, b []canary.Report) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(ja) == string(jb), nil
}

// layerMetrics turns the recorded operations into per-layer metrics:
// each span name's mean self time per operation, and each counter's mean
// per operation. It fails if any operation's self times do not partition
// its wall time.
func (sp *spine) layerMetrics() (map[string]float64, error) {
	spans := sp.rec.Spans()
	selfSum := make(map[string]time.Duration)
	ops := 0
	for _, s := range spans {
		if s.Parent != -1 {
			continue
		}
		self, err := SelfTimes(spans, s.ID)
		if err != nil {
			return nil, err
		}
		if err := checkPartition(spans, s.ID, self); err != nil {
			return nil, err
		}
		for id, d := range self {
			selfSum[spans[id].Name] += d
		}
		ops++
	}
	out := make(map[string]float64)
	for _, name := range spanNames {
		out[name+"_ms"] = perOp(ms(selfSum[name]), ops)
	}
	for _, name := range counterNames {
		out[name] = perOp(sp.counters[name], sp.ops)
	}
	for name := range selfSum {
		if _, ok := out[name+"_ms"]; !ok {
			return nil, fmt.Errorf("span %q is not a declared layer", name)
		}
	}
	return out, nil
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricUnit derives a per-layer metric's unit from its name.
func metricUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_ms_p95"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}
