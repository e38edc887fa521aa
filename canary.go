// Package canary is a static detector of inter-thread value-flow bugs,
// reproducing "Canary: Practical Static Detection of Inter-thread
// Value-Flow Bugs" (Cai, Yao, Zhang — PLDI 2021).
//
// Canary reduces concurrency bug detection to guarded source–sink
// reachability over an interference-aware value-flow graph: a
// thread-modular algorithm captures data and interference dependence with
// execution-constraint guards on the edges, and an SMT solver decides
// whether each extracted source–sink path corresponds to a feasible
// interleaving under sequential consistency.
//
// The one-call entry point analyzes a program in the concurrent input
// language (see the examples directory and the README for the syntax):
//
//	result, err := canary.Analyze(src, canary.DefaultOptions())
//	for _, r := range result.Reports {
//	    fmt.Println(r)
//	}
//
// Four checkers are built in: inter-thread use-after-free, double-free,
// null-pointer dereference, and taint/information leak.
package canary

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"canary/internal/bitset"
	"canary/internal/core"
	"canary/internal/digest"
	"canary/internal/guard"
	"canary/internal/pipeline"
	"canary/internal/smt"
)

// ErrCanceled is wrapped into every error returned because a context
// passed to AnalyzeContext, NewAnalysisContext, or CheckContext was
// canceled or hit its deadline. Callers distinguish an aborted analysis
// from a malformed program with errors.Is(err, ErrCanceled); the
// underlying context cause (context.Canceled or context.DeadlineExceeded)
// stays observable through errors.Is as well.
var ErrCanceled = errors.New("analysis canceled")

// canceled wraps a context error so that both ErrCanceled and the
// concrete context cause match errors.Is.
func canceled(err error) error {
	return fmt.Errorf("canary: %w: %w", ErrCanceled, err)
}

// ErrInternal is wrapped into every error produced by a recovered panic
// inside the pipeline: the analysis aborted because of a defect (or an
// injected fault), not because of the input program or the caller's
// context. The session that ran the analysis has already quarantined the
// per-function summaries the panicking run may have poisoned.
var ErrInternal = errors.New("internal analysis error")

// wrapAbort classifies an error escaping a pipeline stage: context
// cancellation keeps the ErrCanceled contract, everything else (injected
// faults, internal errors) passes through with only the package prefix so
// errors.Is still reaches the typed cause.
func wrapAbort(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return canceled(err)
	}
	return fmt.Errorf("canary: %w", err)
}

// GuardInternStats returns the cumulative process-wide hit and miss counts
// of the global guard hash-cons interner. Hits concentrate where structured
// formulas are constructed repeatedly — lowering, Φ_ls/Φ_po encoding during
// checking — and a repeated analysis of the same program interns with ~100%
// hits. VFGStats.CacheHits is the per-build slice of this counter.
func GuardInternStats() (hits, misses uint64) { return guard.InternStats() }

// AllocStats reports process-wide counters for the integer-keyed hot-path
// data structures: the number of live interned guard formulas (the hash-cons
// table size), the cumulative uint64 words allocated by bitset-backed
// points-to and location sets, and the number of formula evaluations served
// through the batched assignment-slice evaluator instead of per-call maps.
func AllocStats() (guardInterned int64, bitsetWords int64, batchedEvals uint64) {
	return guard.InternedCount(), bitset.WordsAllocated(), guard.BatchedEvals()
}

// Checker names accepted in Options.Checkers.
const (
	CheckUseAfterFree = core.CheckUAF
	CheckDoubleFree   = core.CheckDoubleFree
	CheckNullDeref    = core.CheckNullDeref
	CheckTaintLeak    = core.CheckTaintLeak
	// CheckDataRace and CheckDeadlock are the opt-in pair-based analyses
	// (guarded lockset-and-order race detection, ab-ba deadlock cycles);
	// they are not part of the default set.
	CheckDataRace = core.CheckDataRace
	CheckDeadlock = core.CheckDeadlock
)

// AllCheckers lists the default source–sink checkers.
func AllCheckers() []string { return append([]string(nil), core.AllCheckers...) }

// ExtendedCheckers lists the opt-in pair-based analyses.
func ExtendedCheckers() []string { return append([]string(nil), core.ExtendedCheckers...) }

// Options configures the whole pipeline. The zero value is not meaningful;
// start from DefaultOptions.
type Options struct {
	// Entry is the entry function; defaults to "main".
	Entry string
	// UnrollDepth bounds loops by unrolling (the paper unrolls twice).
	UnrollDepth int
	// InlineDepth bounds the calling-context cloning (the paper uses six).
	InlineDepth int

	// EnableMHP prunes non-parallel store/load pairs during the
	// interference analysis (§6).
	EnableMHP bool
	// GuardCap widens guards larger than this many formula nodes to true.
	GuardCap int

	// Checkers selects the properties to check; nil means all.
	Checkers []string
	// RequireInterThread keeps only bugs whose flow crosses threads.
	RequireInterThread bool
	// LockOrder enables the lock/unlock mutual-exclusion constraints.
	LockOrder bool
	// CondVarOrder enables the wait/notify order constraints.
	CondVarOrder bool
	// MemoryModel selects the consistency axioms: "sc" (default), "tso",
	// or "pso" (the paper's future-work relaxed-model extension).
	MemoryModel string
	// FactPropagation enables the customized order-fact decision procedure
	// that settles or shrinks queries before the SMT solver.
	FactPropagation bool
	// Workers sizes the worker pools of both the parallel VFG build and the
	// source–sink checking stage. 0 (the default) means one worker per
	// logical CPU; 1 forces a fully sequential pipeline. Results are
	// byte-identical for every worker count.
	Workers int
	// CubeAndConquer enables the parallel SMT strategy per query.
	CubeAndConquer bool
	// MaxConflicts bounds each SMT query.
	MaxConflicts int64
	// Budgets bounds the expensive stages; exhaustion degrades the result
	// (inconclusive verdicts, Result.Degraded) instead of aborting it.
	Budgets Budgets
}

// Budgets is the resource-governance block: step-counted bounds on the
// expensive pipeline stages. Every budget is deterministic — counted in
// analysis steps, never wall-clock — so a budget-limited run still honors
// the byte-identical-output contract for any worker count. The zero value
// means "defensive defaults only" (the generous built-in caps): no
// inconclusive entries are emitted for the fixpoint or search stages
// unless the corresponding budget is explicitly set.
//
// Exhaustion never aborts the analysis. The affected scope degrades:
//
//   - MaxFixpointRounds: the VFG is used as-built after that many
//     Alg. 1/Alg. 2 rounds; Result.Degraded lists "fixpoint".
//   - MaxDFSSteps: each source whose search is truncated contributes one
//     inconclusive report ("budget-exhausted: search") naming the source.
//   - MaxFormulaNodes: a source–sink pair whose assembled constraint
//     system exceeds the bound gets an inconclusive report
//     ("budget-exhausted: formula") instead of a solver query.
//
// The solver's own conflict budget stays Options.MaxConflicts; a query it
// leaves undecided becomes an inconclusive report ("budget-exhausted:
// solve"). Wall-clock budgets exist only in canaryd (per-stage timeouts),
// where determinism is traded explicitly for liveness.
type Budgets struct {
	// MaxFixpointRounds caps the outer VFG fixpoint (<= 0: default 32).
	MaxFixpointRounds int
	// MaxDFSSteps caps the per-source DFS (<= 0: default 200000).
	MaxDFSSteps int
	// MaxFormulaNodes caps each assembled SMT formula (<= 0: unbounded).
	MaxFormulaNodes int
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Entry:              "main",
		UnrollDepth:        2,
		InlineDepth:        6,
		EnableMHP:          true,
		GuardCap:           96,
		RequireInterThread: true,
		LockOrder:          true,
		CondVarOrder:       true,
		MemoryModel:        "sc",
		FactPropagation:    true,
		Workers:            0, // all CPUs
		MaxConflicts:       200000,
	}
}

// SubmissionKey returns the canonical SHA-256 content key of an analysis
// submission: the pair (source, options) that fully determines Analyze's
// output. Two submissions with the same key produce byte-identical
// results, so the key addresses a result cache (canaryd's content store
// keys on it).
//
// The source is canonicalized first (CRLF → LF, "//" comment text blanked,
// trailing whitespace stripped per line, exactly one trailing newline) —
// none of these affect the token stream, so cosmetically different copies
// of one program share a key. The canonicalizer is digest.CanonicalSource,
// the same one the incremental function digests build on: an edit that
// misses one cache misses both for the same reason. Note comment blanking
// preserves line structure, so the line numbers in a cached result replay
// exactly. Options are folded field by field in a fixed order with two
// deliberate exceptions: Workers is excluded, because the determinism
// contract guarantees the output is byte-identical for every worker count,
// and a nil Checkers list is canonicalized to the explicit default set.
// CubeAndConquer is included: the cube strategy does not retain solver
// models, so witness schedules differ from the sequential solver's.
func SubmissionKey(src string, opt Options) [32]byte {
	h := sha256.New()
	seg := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	str := func(s string) { seg([]byte(s)) }
	num := func(i int64) { str(strconv.FormatInt(i, 10)) }
	flag := func(b bool) { str(strconv.FormatBool(b)) }

	str("canary-submission-v3")
	seg(digest.AppendCanonicalSource(make([]byte, 0, len(src)+1), src))

	entry := opt.Entry
	if entry == "" {
		entry = "main"
	}
	str(entry)
	num(int64(opt.UnrollDepth))
	num(int64(opt.InlineDepth))
	flag(opt.EnableMHP)
	num(int64(opt.GuardCap))
	checkers := opt.Checkers
	if len(checkers) == 0 {
		checkers = core.AllCheckers
	}
	sorted := append([]string(nil), checkers...)
	sort.Strings(sorted)
	num(int64(len(sorted)))
	for _, c := range sorted {
		str(c)
	}
	flag(opt.RequireInterThread)
	flag(opt.LockOrder)
	flag(opt.CondVarOrder)
	model := opt.MemoryModel
	if model == "" {
		model = "sc"
	}
	str(model)
	flag(opt.FactPropagation)
	flag(opt.CubeAndConquer)
	num(opt.MaxConflicts)
	num(int64(opt.Budgets.MaxFixpointRounds))
	num(int64(opt.Budgets.MaxDFSSteps))
	num(int64(opt.Budgets.MaxFormulaNodes))

	var key [32]byte
	h.Sum(key[:0])
	return key
}

// Site is one program point in a report.
type Site struct {
	Fn     string
	Line   int
	Thread int
	Desc   string
}

func (s Site) String() string {
	return fmt.Sprintf("%s (line %d, thread %d, %s)", s.Desc, s.Line, s.Thread, s.Fn)
}

// Report is one detected bug: a realizable source–sink value flow.
type Report struct {
	// Kind is the checker name (e.g. "use-after-free").
	Kind string
	// Source and Sink are the endpoints (e.g. the free and the use).
	Source Site
	Sink   Site
	// Trace is the value-flow path between them, one step per line.
	Trace []string
	// Schedule is a concrete witness interleaving of the involved
	// statements ("ℓ5 [thread 1]: *y = b", ...), reconstructed from the
	// solver's satisfying assignment.
	Schedule []string
	// Guard is the aggregated execution constraint of the path.
	Guard string
	// Decided is false when the report is inconclusive: a budget ran out
	// or an internal error was recovered, and the report is kept as a
	// potential bug (the soundy choice). Verdict and Reason carry the
	// structured form of the same information.
	Decided bool
	// Verdict is VerdictRealizable for a decided report and
	// VerdictInconclusive otherwise.
	Verdict Verdict
	// Reason is empty for a decided report; an inconclusive one names its
	// cause: "budget-exhausted: <fixpoint|search|formula|solve>" or
	// "internal-error: <detail>" (a recovered panic or injected fault).
	Reason string
}

// Verdict classifies a report's decision status.
type Verdict string

// Report verdicts. A realizable report carries a solver-confirmed witness
// interleaving; an inconclusive one marks a source–sink pair (or a whole
// truncated source search) the analysis could not decide within its
// budgets — kept as a potential bug rather than dropped, so exhaustion
// degrades the answer instead of silently shrinking it.
const (
	VerdictRealizable   Verdict = "realizable"
	VerdictInconclusive Verdict = "inconclusive"
)

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] source: %s\n         sink: %s", r.Kind, r.Source, r.Sink)
	if !r.Decided {
		reason := r.Reason
		if reason == "" {
			reason = pipeline.ReasonSolveExhausted
		}
		fmt.Fprintf(&b, "\n         (inconclusive: %s; potential bug)", reason)
	}
	return b.String()
}

// VFGStats describes the constructed value-flow graph.
type VFGStats struct {
	Nodes             int
	Edges             int
	DirectEdges       int
	DataDepEdges      int
	InterferenceEdges int
	FilteredEdges     int
	EscapedObjects    int
	Iterations        int
	BuildTime         time.Duration
	// ParallelBuildTime is the part of BuildTime spent in the parallel
	// regions (per-thread dependence passes, interference-guard
	// evaluation).
	ParallelBuildTime time.Duration
	// CacheHits counts guard hash-cons hits during the build: formula
	// constructions answered by the global interner instead of a fresh
	// allocation.
	CacheHits uint64
	// SummaryHits / FuncsReanalyzed report the incremental summarize step
	// when the analysis ran inside a Session: how many functions' transfer
	// summaries were loaded from the digest-keyed store and how many were
	// recomputed (hits + reanalyzed = total functions). A session-less
	// analysis reanalyzes every function.
	SummaryHits     int
	FuncsReanalyzed int
	// FixpointBudgetExhausted reports that the outer VFG fixpoint stopped
	// at its round cap while still making progress; the graph (and every
	// report derived from it) is a sound under-approximation.
	FixpointBudgetExhausted bool
}

// CheckStats describes the checking stage's work.
type CheckStats struct {
	Sources       int
	PathsExamined int
	SemiDecided   int
	FactDecided   int
	SolverQueries int
	SolverUnsat   int
	// TrivialSolves counts queries decided by the pre-CNF fast path
	// (constant folding + unit propagation) without the solver.
	TrivialSolves int
	SearchTime    time.Duration
	SolveTime     time.Duration
	// The degradation observables: per-source searches that ran out of
	// DFS steps, assembled formulas over the node budget, solver queries
	// left Unknown by the conflict budget, and panics recovered into
	// internal-error reports instead of crashing the process.
	SearchBudgetExhausted  int
	FormulaBudgetExhausted int
	SolveBudgetExhausted   int
	PanicsRecovered        int
}

// StageSpan is one entry of Result.Trace: the structured trace record of
// one pipeline stage's execution. Spans carry wall-clock measurements and
// work counters and are explicitly OUTSIDE the determinism contract —
// byte-identical analyses may carry different spans, and canaryd's result
// cache replays the cold run's trace verbatim.
type StageSpan struct {
	// Stage is the canonical stage name, one of the pipeline registry's
	// parse, lower, pta, datadep, interference, mhp, vfg, check.
	Stage string
	// Wall is the stage's wall-clock duration. The vfg span carries the
	// build's residual (fixpoint merge and bookkeeping) — the datadep,
	// interference, and mhp spans hold their own shares — so summing all
	// spans approximates the whole analysis.
	Wall time.Duration
	// Steps counts the stage-defined work units consumed: functions
	// re-summarized (pta), instructions lowered (lower), fixpoint
	// iterations (vfg), DFS steps (check), edges added (datadep,
	// interference).
	Steps int64
	// Budget is the configured step budget of the stage's governing
	// dimension; 0 when the stage ran ungoverned.
	Budget int64
	// BudgetRemaining is the unconsumed part of that budget, -1 when
	// ungoverned.
	BudgetRemaining int64
	// CacheHits counts reused cached work: summary-store hits (pta) and
	// guard-interner hits (vfg).
	CacheHits uint64
}

// Result is the outcome of Analyze.
type Result struct {
	Reports      []Report
	VFG          VFGStats
	Check        CheckStats
	Threads      int
	Instructions int
	// Degraded lists the budget dimensions exhausted during this analysis,
	// in pipeline order (the registration order of the stage registry):
	// "fixpoint", "search", "formula", "solve". Empty means every answer
	// is as complete as the options allow. The fixpoint and search entries
	// appear only when the corresponding Budgets field was explicitly
	// set — the built-in defensive caps do not count as caller-chosen
	// budgets.
	Degraded []string
	// Trace holds one span per executed pipeline stage, in pipeline
	// order. Like the stats, the trace is outside the determinism
	// contract (wall times vary run to run).
	Trace []StageSpan
}

// Analysis holds a built interference-aware VFG so that several checker
// configurations can run over one program without re-running the
// dependence analyses.
type Analysis struct {
	opt     Options
	b       *core.Builder
	session *Session
	// src is kept so that a panic recovered during checking can
	// quarantine this program's per-function summaries from the session.
	src string
	// run is the pipeline runner that executed the build stages; Check
	// rounds run through it too, and Result.Trace is read off it. An
	// Analysis (like its runner) is not safe for concurrent Check calls.
	run *pipeline.Runner
}

// NewAnalysis parses and lowers src and builds the interference-aware VFG
// once. Use Check to run (possibly several rounds of) checkers over it.
func NewAnalysis(src string, opt Options) (*Analysis, error) {
	return NewAnalysisContext(context.Background(), src, opt)
}

// NewAnalysisContext is NewAnalysis with cooperative cancellation: the VFG
// fixpoint checks ctx between rounds and aborts with an error wrapping
// ErrCanceled (and the context cause) when it is done.
func NewAnalysisContext(ctx context.Context, src string, opt Options) (*Analysis, error) {
	var s *Session
	return s.NewAnalysisContext(ctx, src, opt)
}

func memoryModelOf(opt Options) (core.MemoryModel, error) {
	switch opt.MemoryModel {
	case "", "sc":
		return core.MemSC, nil
	case "tso":
		return core.MemTSO, nil
	case "pso":
		return core.MemPSO, nil
	}
	return core.MemSC, fmt.Errorf("canary: unknown memory model %q (want sc, tso or pso)", opt.MemoryModel)
}

// Check runs the given checkers (nil = the Options' selection, which
// defaults to all source–sink checkers) over the already-built VFG.
func (a *Analysis) Check(checkers ...string) (*Result, error) {
	return a.CheckContext(context.Background(), checkers...)
}

// CheckContext is Check with cooperative cancellation: ctx is consulted
// between checkers and between source–sink searches. On cancellation the
// partial reports are discarded and the returned error wraps ErrCanceled
// and the context cause. A panic escaping the checking stage is recovered
// into an error wrapping ErrInternal, after quarantining the program's
// per-function summaries from the session.
func (a *Analysis) CheckContext(ctx context.Context, checkers ...string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			a.session.recordPanic(a.src)
			res, err = nil, fmt.Errorf("canary: %w: %v", ErrInternal, r)
		}
	}()
	opt := a.opt
	if len(checkers) > 0 {
		opt.Checkers = checkers
	}
	model, merr := memoryModelOf(opt)
	if merr != nil {
		return nil, merr
	}
	var reports []core.Report
	var stats core.CheckStats
	if err := a.run.Run(ctx, pipeline.StageCheck, func(sp *pipeline.Span) error {
		var cerr error
		reports, stats, cerr = a.b.CheckContext(ctx, core.CheckOptions{
			Checkers:             opt.Checkers,
			RequireInterThread:   opt.RequireInterThread,
			LockOrder:            opt.LockOrder,
			CondVarOrder:         opt.CondVarOrder,
			MemoryModel:          model,
			FactPropagation:      opt.FactPropagation,
			Workers:              opt.Workers,
			CubeAndConquer:       opt.CubeAndConquer,
			MaxConflicts:         opt.MaxConflicts,
			MaxDFSSteps:          opt.Budgets.MaxDFSSteps,
			ExplicitSearchBudget: opt.Budgets.MaxDFSSteps > 0,
			MaxFormulaNodes:      opt.Budgets.MaxFormulaNodes,
		})
		sp.Steps = int64(stats.SearchSteps)
		sp.Budget = int64(opt.Budgets.MaxDFSSteps)
		return cerr
	}); err != nil {
		return nil, classifyStageErr(a.session, a.src, err)
	}
	return a.result(reports, stats), nil
}

// WriteDot renders the built VFG in Graphviz DOT form.
func (a *Analysis) WriteDot(w io.Writer) error { return a.b.G.WriteDot(w) }

// Analyze parses, lowers, builds the interference-aware VFG, and runs the
// selected checkers on src. For several checking rounds over one program,
// use NewAnalysis + Check.
func Analyze(src string, opt Options) (*Result, error) {
	return AnalyzeContext(context.Background(), src, opt)
}

// AnalyzeContext is Analyze with cooperative cancellation: both the VFG
// fixpoint (between rounds) and the checking stage (between source–sink
// searches) poll ctx, so a canceled or deadline-bounded analysis returns
// promptly with an error wrapping ErrCanceled.
func AnalyzeContext(ctx context.Context, src string, opt Options) (*Result, error) {
	var s *Session
	return s.AnalyzeContext(ctx, src, opt)
}

func (a *Analysis) result(reports []core.Report, stats core.CheckStats) *Result {
	b := a.b
	prog := b.Prog
	res := &Result{
		Threads:      len(prog.Threads),
		Instructions: prog.NumInsts(),
		VFG: VFGStats{
			Nodes:                   b.G.NumNodes(),
			Edges:                   b.G.NumEdges(),
			DirectEdges:             b.Stats.DirectEdges,
			DataDepEdges:            b.Stats.DataDepEdges,
			InterferenceEdges:       b.Stats.InterferenceEdges,
			FilteredEdges:           b.Stats.FilteredEdges,
			EscapedObjects:          b.Stats.EscapedObjects,
			Iterations:              b.Stats.Iterations,
			BuildTime:               b.Stats.BuildTime,
			ParallelBuildTime:       b.Stats.ParallelTime,
			CacheHits:               b.Stats.GuardCacheHits,
			SummaryHits:             b.Stats.SummaryHits,
			FuncsReanalyzed:         b.Stats.FuncsReanalyzed,
			FixpointBudgetExhausted: b.Stats.FixpointExhausted,
		},
		Check: CheckStats{
			Sources:                stats.Sources,
			PathsExamined:          stats.PathsExamined,
			SemiDecided:            stats.SemiDecided,
			FactDecided:            stats.FactDecided,
			SolverQueries:          stats.SolverQueries,
			SolverUnsat:            stats.SolverUnsat,
			TrivialSolves:          stats.TrivialSolves,
			SearchTime:             stats.SearchTime,
			SolveTime:              stats.SolveTime,
			SearchBudgetExhausted:  stats.SearchBudgetExhausted,
			FormulaBudgetExhausted: stats.FormulaBudgetExhausted,
			SolveBudgetExhausted:   stats.SolveBudgetExhausted,
			PanicsRecovered:        stats.PanicsRecovered,
		},
	}
	// Degraded lists exhausted budget dimensions; the ordering is the
	// stage registry's, not a local list. Fixpoint and search appear only
	// under an explicit Budgets setting: their built-in defensive caps
	// predate the governance layer and tripping them is not a
	// caller-chosen degradation.
	exhausted := map[string]bool{
		pipeline.BudgetFixpoint: b.Stats.FixpointExhausted && a.opt.Budgets.MaxFixpointRounds > 0,
		pipeline.BudgetSearch:   stats.SearchBudgetExhausted > 0 && a.opt.Budgets.MaxDFSSteps > 0,
		pipeline.BudgetFormula:  stats.FormulaBudgetExhausted > 0,
		pipeline.BudgetSolve:    stats.SolveBudgetExhausted > 0,
	}
	for _, dim := range pipeline.BudgetDimensions() {
		if exhausted[dim] {
			res.Degraded = append(res.Degraded, dim)
		}
	}
	if a.run != nil {
		res.Trace = traceOf(a.run)
	}
	for _, r := range reports {
		pub := Report{
			Kind:    r.Kind,
			Source:  Site{Fn: r.Source.Fn, Line: r.Source.Line, Thread: r.Source.Thread, Desc: r.Source.Desc},
			Sink:    Site{Fn: r.Sink.Fn, Line: r.Sink.Line, Thread: r.Sink.Thread, Desc: r.Sink.Desc},
			Guard:   r.Guard,
			Decided: r.Result == smt.Sat,
			Reason:  r.Reason,
		}
		if pub.Decided {
			pub.Verdict = VerdictRealizable
		} else {
			pub.Verdict = VerdictInconclusive
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
		res.Reports = append(res.Reports, pub)
	}
	return res
}

// traceOf converts the spans run has recorded into Result.Trace form.
func traceOf(run *pipeline.Runner) []StageSpan {
	var out []StageSpan
	for _, sp := range run.Trace() {
		out = append(out, StageSpan{
			Stage:           sp.Stage,
			Wall:            sp.Wall,
			Steps:           sp.Steps,
			Budget:          sp.Budget,
			BudgetRemaining: sp.BudgetRemaining(),
			CacheHits:       sp.CacheHits,
		})
	}
	return out
}

// AnalyzeFile reads path and analyzes its contents.
func AnalyzeFile(path string, opt Options) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("canary: %w", err)
	}
	return Analyze(string(data), opt)
}

// WriteVFGDot builds the interference-aware value-flow graph of src and
// writes it in Graphviz DOT form: objects as boxes, variable definitions
// as ellipses, interference edges dashed (the paper's Fig. 2(b) notation).
func WriteVFGDot(src string, opt Options, w io.Writer) error {
	a, err := NewAnalysis(src, opt)
	if err != nil {
		return err
	}
	return a.WriteDot(w)
}
