package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"canary/internal/failpoint"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/pipeline"
	"canary/internal/smt"
	"canary/internal/vfg"
)

// Checker kinds.
const (
	CheckUAF        = "use-after-free"
	CheckDoubleFree = "double-free"
	CheckNullDeref  = "null-deref"
	CheckTaintLeak  = "taint-leak"
)

// AllCheckers lists the source–sink properties checked by default.
var AllCheckers = []string{CheckUAF, CheckDoubleFree, CheckNullDeref, CheckTaintLeak}

// ExtendedCheckers lists the additional pair-based analyses (opt-in): the
// guarded data-race and ab-ba deadlock detectors.
var ExtendedCheckers = []string{CheckDataRace, CheckDeadlock}

// CheckOptions configures the guarded source–sink detection of §5.
type CheckOptions struct {
	// Checkers selects the properties to check; nil means all.
	Checkers []string
	// RequireInterThread keeps only bugs whose source-sink path crosses
	// threads (the paper's inter-thread value-flow bugs). Default true via
	// DefaultCheck.
	RequireInterThread bool
	// MaxPathLen bounds the number of edges on an extracted path.
	MaxPathLen int
	// MaxDFSSteps bounds the search effort per source.
	MaxDFSSteps int
	// ExplicitSearchBudget marks MaxDFSSteps as a caller-chosen budget
	// (canary.Budgets) rather than the defensive default: an exhausted
	// explicit budget emits a per-source inconclusive report
	// ("budget-exhausted: search") instead of truncating silently.
	ExplicitSearchBudget bool
	// MaxFormulaNodes bounds the size of each assembled SMT formula; a
	// larger system yields an inconclusive report ("budget-exhausted:
	// formula") for its pair instead of an unbounded solver query.
	// <= 0 disables the bound.
	MaxFormulaNodes int
	// MaxCompetitors bounds the intervening-store disjuncts encoded per
	// indirect edge (skipping extras over-approximates, never misses).
	MaxCompetitors int
	// MaxConflicts bounds each SMT query (Unknown counts as a report, the
	// soundy choice).
	MaxConflicts int64
	// Workers sizes the fixed pool that parallelizes over sources (§5.2's
	// second optimization). 0 (the default) means one worker per logical
	// CPU; 1 forces a sequential run. Reports are byte-identical for every
	// worker count.
	Workers int
	// SimplifyGuards applies the semi-decision filter before SMT (§5.2's
	// first optimization).
	SimplifyGuards bool
	// CubeAndConquer solves each query with the parallel cube strategy
	// (§5.2's third optimization).
	CubeAndConquer bool
	// CubeSplit is the number of split atoms for cube-and-conquer.
	CubeSplit int
	// LockOrder enables the lock/unlock mutual-exclusion extension
	// (paper §9, future work 1).
	LockOrder bool
	// CondVarOrder enables the wait/notify extension (paper §9, future
	// work 1): a statement ordered after a wait(cv) requires some
	// notify(cv) to have executed before the wait.
	CondVarOrder bool
	// MemoryModel selects the consistency axioms for the intra-thread
	// program-order facts: MemSC (the paper's sequential consistency,
	// default), MemTSO, or MemPSO (paper §9, future work 2).
	MemoryModel MemoryModel
	// FactPropagation enables the customized decision procedure (paper §9,
	// future work 3): order facts are transitively closed to refute fact
	// cycles and simplify disjunctions before (often instead of) the CDCL
	// solver.
	FactPropagation bool

	// Verdicts is read by nothing.
	//
	// Deprecated: kept only because perfbench still sets it; the ROADMAP
	// item "perfbench: an honest clock for short operations, and a replay
	// of what a save runs" drops that use, and this field goes with it.
	Verdicts *smt.VerdictStore
}

// MemoryModel enumerates the supported consistency models.
type MemoryModel int

// Memory models. Under TSO an earlier store may be delayed past a later
// load of a different location (store buffering); PSO additionally lets
// independent stores reorder. Same-location pairs (recognized
// syntactically: the same pointer SSA variable) always stay ordered.
const (
	MemSC MemoryModel = iota
	MemTSO
	MemPSO
)

func (m MemoryModel) String() string {
	switch m {
	case MemTSO:
		return "tso"
	case MemPSO:
		return "pso"
	default:
		return "sc"
	}
}

// DefaultCheck mirrors the paper's configuration.
func DefaultCheck() CheckOptions {
	return CheckOptions{
		RequireInterThread: true,
		MaxPathLen:         48,
		MaxDFSSteps:        200000,
		MaxCompetitors:     24,
		MaxConflicts:       200000,
		Workers:            0, // all CPUs
		SimplifyGuards:     true,
		LockOrder:          true,
		CondVarOrder:       true,
		MemoryModel:        MemSC,
		FactPropagation:    true,
	}
}

func (o CheckOptions) withDefaults() CheckOptions {
	if len(o.Checkers) == 0 {
		o.Checkers = AllCheckers
	}
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 48
	}
	if o.MaxDFSSteps <= 0 {
		o.MaxDFSSteps = 200000
	}
	if o.MaxCompetitors <= 0 {
		o.MaxCompetitors = 24
	}
	if o.MaxConflicts <= 0 {
		o.MaxConflicts = 200000
	}
	if o.CubeSplit <= 0 {
		o.CubeSplit = 3
	}
	return o
}

// Site is one program point of a report.
type Site struct {
	Label  ir.Label
	Thread int
	Fn     string
	Line   int
	Desc   string
}

// Report is one detected (realizable) source–sink bug.
type Report struct {
	Kind   string
	Source Site
	Sink   Site
	// Path lists the value-flow steps from source to sink.
	Path []Site
	// Schedule is a concrete witness interleaving of the involved
	// statements, reconstructed from the satisfying assignment.
	Schedule []Site
	// Guard is the rendered aggregated constraint of the path.
	Guard string
	// Result is the SMT verdict (Sat, or Unknown when the budget ran out).
	Result smt.Result
	// Reason is empty for a decided report; an undecided one carries the
	// degradation cause: "budget-exhausted: <search|formula|solve>" or
	// "internal-error: <detail>" (a recovered panic or injected fault).
	Reason string
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s (thread %d, line %d)\n  -> %s (thread %d, line %d)",
		r.Kind, r.Source.Desc, r.Source.Thread, r.Source.Line,
		r.Sink.Desc, r.Sink.Thread, r.Sink.Line)
	return b.String()
}

// CheckStats counts checking work.
type CheckStats struct {
	Sources       int
	PathsExamined int
	SemiDecided   int // paths pruned by the semi-decision filter
	FactDecided   int // queries settled by the order-fact closure alone
	SolverQueries int
	SolverUnsat   int
	// TrivialSolves counts queries decided by the pre-Tseitin fast path
	// (constant folding + unit propagation, smt.Presolve) without the
	// solver.
	TrivialSolves int
	// SearchSteps sums the DFS steps consumed across all per-source
	// searches — the check stage's consumption against Budgets.MaxDFSSteps
	// (which bounds each source's search separately).
	SearchSteps int
	SearchTime  time.Duration
	SolveTime   time.Duration
	// The degradation observables of the governance layer: how many
	// per-source searches ran out of DFS steps, how many assembled
	// formulas exceeded MaxFormulaNodes, how many solver verdicts came
	// back Unknown (conflict budget), and how many panics were converted
	// into internal-error reports instead of crashing the process.
	SearchBudgetExhausted  int
	FormulaBudgetExhausted int
	SolveBudgetExhausted   int
	PanicsRecovered        int

	// CacheHits, VerdictHits and PairsRechecked are set by nothing and
	// always read zero.
	//
	// Deprecated: kept only because perfbench still reads them; the ROADMAP
	// item "perfbench: an honest clock for short operations, and a replay
	// of what a save runs" drops those uses, and these fields go with them.
	CacheHits, VerdictHits, PairsRechecked int
}

func (s *CheckStats) add(o CheckStats) {
	s.Sources += o.Sources
	s.PathsExamined += o.PathsExamined
	s.SemiDecided += o.SemiDecided
	s.FactDecided += o.FactDecided
	s.SolverQueries += o.SolverQueries
	s.SolverUnsat += o.SolverUnsat
	s.TrivialSolves += o.TrivialSolves
	s.SearchSteps += o.SearchSteps
	s.SearchTime += o.SearchTime
	s.SolveTime += o.SolveTime
	s.SearchBudgetExhausted += o.SearchBudgetExhausted
	s.FormulaBudgetExhausted += o.FormulaBudgetExhausted
	s.SolveBudgetExhausted += o.SolveBudgetExhausted
	s.PanicsRecovered += o.PanicsRecovered
}

// source is a source event: the value node to chase and the statement that
// makes it dangerous.
type source struct {
	node  vfg.NodeID
	label ir.Label
}

// Check runs the selected source–sink checkers over the built VFG.
func (b *Builder) Check(opt CheckOptions) ([]Report, CheckStats) {
	reports, stats, _ := b.CheckContext(context.Background(), opt)
	return reports, stats
}

// CheckContext is Check with cooperative cancellation: ctx is consulted
// between checkers and between source–sink searches (each pool worker
// checks it before claiming the next source, and a running DFS aborts at
// its next step-budget checkpoint). On cancellation the partial reports
// are discarded and ctx's error (context.Canceled or
// context.DeadlineExceeded) is returned; the stats gathered so far are
// still returned for observability.
func (b *Builder) CheckContext(ctx context.Context, opt CheckOptions) ([]Report, CheckStats, error) {
	opt = opt.withDefaults()
	var reports []Report
	var stats CheckStats
	for _, kind := range opt.Checkers {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		rs, st := b.runChecker(ctx, kind, opt)
		reports = append(reports, rs...)
		stats.add(st)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Kind != reports[j].Kind {
			return reports[i].Kind < reports[j].Kind
		}
		if reports[i].Source.Label != reports[j].Source.Label {
			return reports[i].Source.Label < reports[j].Source.Label
		}
		return reports[i].Sink.Label < reports[j].Sink.Label
	})
	return reports, stats, nil
}

// runChecker dispatches one checker kind under panic isolation: a panic
// anywhere inside the checker (including one re-raised from a pool
// worker by runIndexed) is converted into a single internal-error report
// for the whole checker instead of crashing the process. Finer-grained
// per-source isolation inside checkKind usually catches the panic first;
// this is the outer net.
func (b *Builder) runChecker(ctx context.Context, kind string, opt CheckOptions) (rs []Report, st CheckStats) {
	defer func() {
		if r := recover(); r != nil {
			st.PanicsRecovered++
			rs = []Report{{
				Kind:   kind,
				Source: Site{Desc: "checker " + kind},
				Sink:   Site{Desc: "checker " + kind},
				Result: smt.Unknown,
				Reason: fmt.Sprintf("internal-error: %v", r),
			}}
		}
	}()
	switch kind {
	case CheckDataRace:
		return b.checkRaces(opt)
	case CheckDeadlock:
		return b.checkDeadlocks(opt)
	default:
		rs, st = b.checkKind(ctx, kind, opt)
		return rs, st
	}
}

// sourcesAndSinks yields the source events and sink map of one checker.
func (b *Builder) sourcesAndSinks(kind string) ([]source, map[ir.VarID][]ir.Label) {
	var sources []source
	sinks := make(map[ir.VarID][]ir.Label)
	for _, inst := range b.Prog.Insts() {
		switch kind {
		case CheckUAF:
			if inst.Op == ir.OpFree {
				sources = append(sources, source{node: b.G.VarNode(inst.Val), label: inst.Label})
			}
			if inst.Op == ir.OpDeref {
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		case CheckDoubleFree:
			if inst.Op == ir.OpFree {
				sources = append(sources, source{node: b.G.VarNode(inst.Val), label: inst.Label})
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		case CheckNullDeref:
			if inst.Op == ir.OpNull {
				sources = append(sources, source{node: b.G.VarNode(inst.Def), label: inst.Label})
			}
			if inst.Op == ir.OpDeref {
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		case CheckTaintLeak:
			if inst.Op == ir.OpTaint {
				sources = append(sources, source{node: b.G.VarNode(inst.Def), label: inst.Label})
			}
			if inst.Op == ir.OpLeak {
				sinks[inst.Val] = append(sinks[inst.Val], inst.Label)
			}
		}
	}
	return sources, sinks
}

func (b *Builder) checkKind(ctx context.Context, kind string, opt CheckOptions) ([]Report, CheckStats) {
	sources, sinks := b.sourcesAndSinks(kind)
	if len(sources) == 0 || len(sinks) == 0 {
		return nil, CheckStats{Sources: len(sources)}
	}
	var stats CheckStats
	stats.Sources = len(sources)

	// Cost-ordered queue: sources with the largest VFG fan-out (a proxy for
	// expected DFS effort) are dispatched first so the pool never idles
	// behind one expensive straggler scheduled last. The order affects only
	// scheduling — results land in per-source slots and are merged in
	// source order below, so the output is identical for any worker count.
	order := make([]int, len(sources))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(b.G.Out(sources[order[i]].node)) > len(b.G.Out(sources[order[j]].node))
	})

	type slot struct {
		reports []Report
		stats   CheckStats
	}
	slots := make([]slot, len(sources))
	runIndexed(workerCount(opt.Workers), len(sources), func(qi int) {
		// Cancellation checkpoint between source–sink searches: once ctx is
		// done the pool drains without claiming further sources. The partial
		// slots are never surfaced — CheckContext discards them and returns
		// ctx's error.
		if ctx.Err() != nil {
			return
		}
		si := order[qi]
		c := &checkCtx{
			b: b, kind: kind, opt: opt, ctx: ctx, sinks: sinks,
			pairs: &pairSet{kind: kind, done: make(map[[2]ir.Label]bool)},
		}
		// Per-source panic isolation: a panic while checking one source
		// becomes that source's internal-error report and the other
		// sources' results stand. The recover must wrap the search call
		// alone so c.stats keeps whatever was counted before the panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					c.stats.PanicsRecovered++
					site := c.site(sources[si].label)
					slots[si].reports = []Report{{
						Kind:   kind,
						Source: site,
						Sink:   site,
						Result: smt.Unknown,
						Reason: fmt.Sprintf("internal-error: %v", r),
					}}
				}
			}()
			slots[si].reports = c.searchFrom(sources[si])
		}()
		slots[si].stats = c.stats
	})

	// Deterministic merge in source order. Each source deduplicated its own
	// (source, sink) pairs during the search; across sources only unordered
	// double-free keys can collide (free a reporting a↔z and free z
	// reporting z↔a), and there the earliest source keeps the report — the
	// same pair the sequential claim order used to pick.
	var reports []Report
	claimed := make(map[[2]ir.Label]bool)
	for si := range slots {
		stats.add(slots[si].stats)
		for _, r := range slots[si].reports {
			k := pairKey(kind, r.Source.Label, r.Sink.Label)
			if claimed[k] {
				continue
			}
			claimed[k] = true
			reports = append(reports, r)
		}
	}
	return reports, stats
}

// pairKey canonicalizes a (source, sink) label pair. Double-free pairs are
// unordered: each unordered pair reports once.
func pairKey(kind string, a, z ir.Label) [2]ir.Label {
	if kind == CheckDoubleFree && a > z {
		return [2]ir.Label{z, a}
	}
	return [2]ir.Label{a, z}
}

// pairSet tracks which (source, sink) pairs have already produced a
// report within one source's search. A pair is claimed only when a
// realizable path is found: an irrealizable path must not mask a later
// realizable one through the same endpoints. The set is per-source (each
// worker owns its own), so no locking is needed; cross-source duplicates
// are dropped at the deterministic merge in checkKind.
type pairSet struct {
	kind string
	done map[[2]ir.Label]bool
}

func (p *pairSet) reported(a, z ir.Label) bool {
	return p.done[pairKey(p.kind, a, z)]
}

func (p *pairSet) claim(a, z ir.Label) bool {
	k := pairKey(p.kind, a, z)
	if p.done[k] {
		return false
	}
	p.done[k] = true
	return true
}

// checkCtx is the per-source search state.
type checkCtx struct {
	b     *Builder
	kind  string
	opt   CheckOptions
	ctx   context.Context
	sinks map[ir.VarID][]ir.Label
	pairs *pairSet
	stats CheckStats
	steps int
	// canceled distinguishes the cancellation poison (steps forced to the
	// budget so the DFS unwinds) from a genuinely exhausted search
	// budget; only the latter is a degradation observable.
	canceled bool

	// lazily built wait/notify indexes for the condition-variable
	// extension.
	waitInsts   []*ir.Inst
	notifyInsts map[string][]*ir.Inst
}

// searchFrom extracts source–sink value-flow paths by DFS over the VFG
// (Eq. 3) and validates each candidate's realizability.
func (c *checkCtx) searchFrom(src source) []Report {
	t0 := time.Now()
	var reports []Report
	g := c.b.G
	onPath := make(map[vfg.NodeID]bool)
	var path []vfg.EdgeID

	var visit func(n vfg.NodeID)
	visit = func(n vfg.NodeID) {
		if c.steps >= c.opt.MaxDFSSteps {
			return
		}
		// A long-running DFS polls ctx every 256 steps; on cancellation it
		// exhausts its step budget so the whole search unwinds promptly.
		if c.steps&0xff == 0 && c.ctx != nil && c.ctx.Err() != nil {
			c.steps = c.opt.MaxDFSSteps
			c.canceled = true
			return
		}
		c.steps++
		node := g.Node(n)
		if node.Kind == vfg.NodeVar {
			for _, sinkLabel := range c.sinks[node.Var()] {
				if sinkLabel == src.label {
					continue
				}
				if rep, ok := c.validate(src, sinkLabel, path); ok {
					reports = append(reports, rep)
				}
			}
		}
		if len(path) >= c.opt.MaxPathLen {
			return
		}
		for _, eid := range g.Out(n) {
			e := g.Edge(eid)
			if onPath[e.To] {
				continue
			}
			onPath[e.To] = true
			path = append(path, eid)
			visit(e.To)
			path = path[:len(path)-1]
			delete(onPath, e.To)
		}
	}
	onPath[src.node] = true
	visit(src.node)
	if c.steps >= c.opt.MaxDFSSteps && !c.canceled {
		c.stats.SearchBudgetExhausted++
		if c.opt.ExplicitSearchBudget {
			// The truncated search may have missed sinks, so the source
			// gets an explicit inconclusive entry instead of a silent
			// partial answer. Sink = source is unambiguous: a real report
			// never has sink == source (searchFrom skips that label), so
			// the pair key cannot collide at the merge.
			site := c.site(src.label)
			reports = append(reports, Report{
				Kind:   c.kind,
				Source: site,
				Sink:   site,
				Result: smt.Unknown,
				Reason: pipeline.ReasonSearchExhausted,
			})
		}
	}
	c.stats.SearchSteps += c.steps
	c.stats.SearchTime += time.Since(t0)
	return reports
}

// validate builds Φ_all = Φ_guards ∧ Φ_ls ∧ Φ_po ∧ (O_src < O_sink) for
// the candidate path and decides its realizability (Defn. 2).
func (c *checkCtx) validate(src source, sinkLabel ir.Label, path []vfg.EdgeID) (Report, bool) {
	// Prompt cancellation: a canceled check must not start assembling or
	// solving another constraint system.
	if c.ctx != nil && c.ctx.Err() != nil {
		return Report{}, false
	}
	b := c.b
	g := b.G
	srcInst := b.Prog.Inst(src.label)
	sinkInst := b.Prog.Inst(sinkLabel)

	// Inter-thread requirement: the flow must cross threads.
	if c.opt.RequireInterThread {
		cross := srcInst.Thread != sinkInst.Thread
		for _, eid := range path {
			if g.Edge(eid).Kind == vfg.EdgeInterference {
				cross = true
				break
			}
		}
		if !cross {
			return Report{}, false
		}
	}
	if c.pairs.reported(src.label, sinkLabel) {
		return Report{}, false
	}
	c.stats.PathsExamined++

	pool := b.Prog.Pool
	q := &query{c: c}
	q.others = append(q.others, srcInst.Guard, sinkInst.Guard)

	// Φ_guards: edge guards plus lazily generated Φ_ls per indirect edge.
	labels := []ir.Label{src.label, sinkLabel}
	for _, eid := range path {
		e := g.Edge(eid)
		q.others = append(q.others, e.Guard)
		if from := g.Node(e.From); from.Kind == vfg.NodeVar && from.Def != ir.NoLabel {
			labels = append(labels, from.Def)
		}
		if to := g.Node(e.To); to.Kind == vfg.NodeVar && to.Def != ir.NoLabel {
			labels = append(labels, to.Def)
		}
		if e.Kind == vfg.EdgeDD || e.Kind == vfg.EdgeInterference {
			labels = append(labels, e.Store, e.Load)
			c.loadStoreConstraints(q, e, &labels)
		}
	}

	// wait/notify extension: statements ordered after a wait(cv) require a
	// prior notify(cv); the notify labels join the Φ_po fact generation.
	if c.opt.CondVarOrder {
		c.condVarConstraints(q, &labels)
	}

	// Φ_po: program-order facts for every pair of involved labels (Eq. 4).
	labels = dedupLabels(labels)
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			c.poFacts(q, labels[i], labels[j])
		}
	}
	// Lock/unlock mutual exclusion (extension).
	if c.opt.LockOrder {
		for i := 0; i < len(labels); i++ {
			for j := i + 1; j < len(labels); j++ {
				c.lockFacts(q, labels[i], labels[j])
			}
		}
	}
	// The bug's own temporal requirement: the source event precedes the
	// sink event.
	q.facts = append(q.facts, [2]ir.Label{src.label, sinkLabel})

	// Customized decision procedure (§9 future work 3): close the order
	// facts transitively, refute fact cycles outright, and simplify the
	// disjunctions against the closure.
	var factDecided bool
	var res smt.Result
	if c.opt.FactPropagation {
		closure := newOrderClosure(q.facts)
		if closure.cycle {
			c.stats.FactDecided++
			return Report{}, false
		}
		for i, d := range q.others {
			q.others[i] = closure.simplify(pool, d)
		}
	}
	// An injected guard-eval fault surfaces as this pair's inconclusive
	// report — the typed error cannot propagate out of the DFS, so the
	// degradation contract (inconclusive, never silent) applies instead.
	if ferr := failpoint.Inject(failpoint.SiteGuardEval); ferr != nil {
		if !c.pairs.claim(src.label, sinkLabel) {
			return Report{}, false
		}
		return Report{
			Kind:   c.kind,
			Source: c.site(src.label),
			Sink:   c.site(sinkLabel),
			Path:   c.pathSites(src, path),
			Result: smt.Unknown,
			Reason: "internal-error: " + ferr.Error(),
		}, true
	}
	all := q.assemble(pool)
	if c.opt.MaxFormulaNodes > 0 && all.Size() > c.opt.MaxFormulaNodes {
		// Formula budget: the assembled system is too large to hand to
		// the solver. The pair is claimed with an inconclusive verdict —
		// assembly is deterministic, so the same pair degrades on every
		// run and worker count.
		c.stats.FormulaBudgetExhausted++
		if !c.pairs.claim(src.label, sinkLabel) {
			return Report{}, false
		}
		return Report{
			Kind:   c.kind,
			Source: c.site(src.label),
			Sink:   c.site(sinkLabel),
			Path:   c.pathSites(src, path),
			Guard:  "(elided: formula budget exhausted)",
			Result: smt.Unknown,
			Reason: pipeline.ReasonFormulaExhausted,
		}, true
	}
	if c.opt.SimplifyGuards {
		if sat, decided := guard.SemiDecide(all); decided && !sat {
			c.stats.SemiDecided++
			return Report{}, false
		}
	}
	if all.IsFalse() {
		c.stats.SemiDecided++
		return Report{}, false
	}
	if c.opt.FactPropagation {
		// When the residual (non-fact) part is decided by the boolean
		// semi-decision and the facts are acyclic, the query is settled
		// without the solver.
		residual := guard.And(q.others...)
		if !hasOrderAtoms(pool, residual) {
			if sat, decided := guard.SemiDecide(residual); decided {
				c.stats.FactDecided++
				factDecided = true
				if !sat {
					return Report{}, false
				}
				res = smt.Sat
			}
		}
	}

	var model smt.AtomValuer
	var reason string
	if !factDecided {
		if pres, pmodel, ok := smt.Presolve(pool, all); ok {
			// Pre-Tseitin fast path: constant folding + unit propagation
			// decided the query without CNF or CDCL. The verdict is exact
			// (see smt.Presolve), so reports are identical to a full solve.
			c.stats.TrivialSolves++
			res = pres
			if pmodel != nil {
				model = pmodel
			}
		} else if ferr := failpoint.Inject(failpoint.SiteSMTSolve); ferr != nil {
			// An injected solver fault degrades the pair to Unknown.
			res = smt.Unknown
			reason = "internal-error: " + ferr.Error()
		} else {
			t0 := time.Now()
			c.stats.SolverQueries++
			if c.opt.CubeAndConquer {
				res = smt.SolveCubeAndConquer(pool, []*guard.Formula{all}, smt.CubeOptions{
					SplitAtoms:          c.opt.CubeSplit,
					MaxConflictsPerCube: c.opt.MaxConflicts,
				})
			} else {
				s := smt.New(pool)
				s.MaxConflicts = c.opt.MaxConflicts
				s.Assert(all)
				res = s.Solve()
				if res == smt.Sat {
					model = s
				}
			}
			c.stats.SolveTime += time.Since(t0)
		}
		if res == smt.Unsat {
			c.stats.SolverUnsat++
			return Report{}, false
		}
		if res == smt.Unknown {
			// The conflict budget (or an injected fault) left the pair
			// undecided; it is kept as a flagged report (the soundy
			// choice) and counted as a solve-stage degradation.
			c.stats.SolveBudgetExhausted++
			if reason == "" {
				reason = pipeline.ReasonSolveExhausted
			}
		}
	}
	if !c.pairs.claim(src.label, sinkLabel) {
		return Report{}, false // another worker reported this pair first
	}
	return Report{
		Kind:     c.kind,
		Source:   c.site(src.label),
		Sink:     c.site(sinkLabel),
		Path:     c.pathSites(src, path),
		Schedule: c.buildSchedule(labels, q.facts, model),
		Guard:    pool.String(all),
		Result:   res,
		Reason:   reason,
	}, true
}

// query accumulates one path's constraint system, separating the unit
// order facts (whose transitive closure the customized decision procedure
// exploits) from the guard parts and order disjunctions.
type query struct {
	c      *checkCtx
	facts  [][2]ir.Label
	others []*guard.Formula
}

// assemble renders the whole system as one formula for the solver.
func (q *query) assemble(pool *guard.Pool) *guard.Formula {
	parts := make([]*guard.Formula, 0, len(q.others)+len(q.facts))
	parts = append(parts, q.others...)
	for _, f := range q.facts {
		parts = append(parts, guard.Var(pool.Order(int(f[0]), int(f[1]))))
	}
	return guard.And(parts...)
}

// hasOrderAtoms reports whether f mentions any order atom.
func hasOrderAtoms(pool *guard.Pool, f *guard.Formula) bool {
	for _, a := range f.Atoms(nil) {
		if _, _, ok := pool.OrderAtom(a); ok {
			return true
		}
	}
	return false
}

// loadStoreConstraints encodes Φ_ls (Eq. 2) for one indirect edge: the
// store precedes the load, and no competing store to the same object lands
// between them (competitors are implied away when their own guard is
// false). extraLabels collects competitor labels so Φ_po can order them.
func (c *checkCtx) loadStoreConstraints(q *query, e *vfg.Edge, extraLabels *[]ir.Label) {
	b := c.b
	pool := b.Prog.Pool
	// O_store < O_load: required for the flow. For same-thread dd edges the
	// CFG already guarantees it, but asserting the atom lets it chain with
	// other order constraints.
	q.facts = append(q.facts, [2]ir.Label{e.Store, e.Load})

	competitors := 0
	for _, ref := range b.G.ObjStoresAt(b.G.LocIndexOf(e.Obj, int(e.Field))) {
		if ref.Store == e.Store {
			continue
		}
		sp := b.Prog.Inst(ref.Store)
		storeInst := b.Prog.Inst(e.Store)
		loadInst := b.Prog.Inst(e.Load)
		// Fast exclusions by CFG order (valid only when the memory model
		// actually guarantees that order).
		if sp.Thread == loadInst.Thread && b.Prog.Reaches(e.Load, ref.Store) &&
			!c.relaxedPair(e.Load, ref.Store) {
			continue // after the load on every execution
		}
		if sp.Thread == storeInst.Thread && b.Prog.Reaches(ref.Store, e.Store) &&
			!c.relaxedPair(ref.Store, e.Store) {
			continue // before the store on every execution
		}
		if competitors >= c.opt.MaxCompetitors {
			break // sound: dropping constraints only over-approximates
		}
		competitors++
		// ¬g_s' ∨ O_s' < O_s ∨ O_l < O_s'.
		q.others = append(q.others, guard.Or(
			guard.Not(ref.Guard),
			guard.Var(pool.Order(int(ref.Store), int(e.Store))),
			guard.Var(pool.Order(int(e.Load), int(ref.Store))),
		))
		*extraLabels = append(*extraLabels, ref.Store)
	}
}

// poFacts emits the program-order facts PO(a, b) of Eq. 4: CFG order within
// a thread, fork/join order across threads. Under a relaxed memory model
// (§9 future work 2), intra-thread store→load (TSO/PSO) and store→store
// (PSO) pairs on possibly-different locations contribute no fact.
func (c *checkCtx) poFacts(q *query, a, z ir.Label) {
	first, second := a, z
	switch c.b.MHP.Ordered(a, z) {
	case -1:
	case 1:
		first, second = z, a
	default:
		return
	}
	if c.relaxedPair(first, second) {
		return
	}
	q.facts = append(q.facts, [2]ir.Label{first, second})
}

// relaxedPair reports whether the memory model drops the program-order
// guarantee between two same-thread instructions (first before second in
// CFG order). Same-location pairs — recognized syntactically by an
// identical pointer SSA variable — always stay ordered, and
// synchronization operations act as fences.
func (c *checkCtx) relaxedPair(first, second ir.Label) bool {
	if c.opt.MemoryModel == MemSC {
		return false
	}
	i1 := c.b.Prog.Inst(first)
	i2 := c.b.Prog.Inst(second)
	if i1.Thread != i2.Thread {
		return false // cross-thread order comes from synchronization
	}
	switch {
	case i1.Op == ir.OpStore && i2.Op == ir.OpLoad:
		// Store buffering: both TSO and PSO delay a store past a later
		// load of a different location.
		return i1.Ptr != i2.Ptr
	case i1.Op == ir.OpStore && i2.Op == ir.OpStore:
		return c.opt.MemoryModel == MemPSO && i1.Ptr != i2.Ptr
	}
	return false
}

// condVarConstraints encodes the wait/notify semantics for every wait that
// precedes a path statement in its thread: some notify of the same
// condition variable must execute before the wait returns. Waits with no
// notify anywhere make the path infeasible (the bounded program can never
// pass them).
func (c *checkCtx) condVarConstraints(q *query, labels *[]ir.Label) {
	b := c.b
	pool := b.Prog.Pool
	seenWait := make(map[ir.Label]bool)
	const maxWaits, maxNotifies = 8, 8
	snapshot := append([]ir.Label(nil), (*labels)...)
	for _, l := range snapshot {
		inst := b.Prog.Inst(l)
		for _, w := range c.waits() {
			if len(seenWait) >= maxWaits {
				break
			}
			if w.Thread != inst.Thread || seenWait[w.Label] {
				continue
			}
			if w.Label != l && !b.Prog.Reaches(w.Label, l) {
				continue
			}
			seenWait[w.Label] = true
			var disjuncts []*guard.Formula
			for i, n := range c.notifies()[w.CondVar()] {
				if i >= maxNotifies {
					break
				}
				disjuncts = append(disjuncts, guard.And(
					n.Guard,
					guard.Var(pool.Order(int(n.Label), int(w.Label))),
				))
				*labels = append(*labels, n.Label)
			}
			q.others = append(q.others, guard.Or(disjuncts...)) // empty → false
			*labels = append(*labels, w.Label)
		}
	}
}

func (c *checkCtx) waits() []*ir.Inst {
	if c.waitInsts == nil {
		c.waitInsts = []*ir.Inst{}
		for _, inst := range c.b.Prog.Insts() {
			if inst.Op == ir.OpWait {
				c.waitInsts = append(c.waitInsts, inst)
			}
		}
	}
	return c.waitInsts
}

func (c *checkCtx) notifies() map[string][]*ir.Inst {
	if c.notifyInsts == nil {
		c.notifyInsts = make(map[string][]*ir.Inst)
		for _, inst := range c.b.Prog.Insts() {
			if inst.Op == ir.OpNotify {
				c.notifyInsts[inst.CondVar()] = append(c.notifyInsts[inst.CondVar()], inst)
			}
		}
	}
	return c.notifyInsts
}

// lockFacts encodes the mutual exclusion of critical sections when both
// labels hold a common lock in different threads: either a's section
// completes before b's acquisition or vice versa. Sections without a unique
// matching unlock are skipped (sound under-constraining).
func (c *checkCtx) lockFacts(q *query, a, z ir.Label) {
	b := c.b
	ia, iz := b.Prog.Inst(a), b.Prog.Inst(z)
	if ia.Thread == iz.Thread {
		return
	}
	pool := b.Prog.Pool
	for _, pair := range b.Prog.CommonLocks(ia, iz) {
		la, lz := pair[0], pair[1]
		if la.Acquire == lz.Acquire {
			continue
		}
		ua := b.Prog.MatchingUnlock(la.Acquire, la.Name)
		uz := b.Prog.MatchingUnlock(lz.Acquire, lz.Name)
		if ua == ir.NoLabel || uz == ir.NoLabel {
			continue
		}
		// Section bounds: acquire ≤ stmt ≤ unlock (facts).
		q.facts = append(q.facts,
			[2]ir.Label{la.Acquire, a},
			[2]ir.Label{lz.Acquire, z},
		)
		if b.Prog.Reaches(a, ua) {
			q.facts = append(q.facts, [2]ir.Label{a, ua})
		}
		if b.Prog.Reaches(z, uz) {
			q.facts = append(q.facts, [2]ir.Label{z, uz})
		}
		// Mutual exclusion of the two critical sections.
		q.others = append(q.others, guard.Or(
			guard.Var(pool.Order(int(ua), int(lz.Acquire))),
			guard.Var(pool.Order(int(uz), int(la.Acquire))),
		))
	}
}

func (c *checkCtx) site(l ir.Label) Site {
	inst := c.b.Prog.Inst(l)
	return Site{
		Label:  l,
		Thread: int(inst.Thread),
		Fn:     c.b.Prog.FnName(inst),
		Line:   inst.Pos.Line,
		Desc:   c.b.Prog.String(inst),
	}
}

// pathSites renders the value-flow path for the report (the concise bug
// trace the paper highlights as an advantage of value flows).
func (c *checkCtx) pathSites(src source, path []vfg.EdgeID) []Site {
	g := c.b.G
	out := []Site{c.site(src.label)}
	for _, eid := range path {
		e := g.Edge(eid)
		to := g.Node(e.To)
		s := Site{Desc: fmt.Sprintf("%s --%s--> %s", g.NodeString(e.From), e.Kind, g.NodeString(e.To))}
		if to.Def != ir.NoLabel && to.Kind == vfg.NodeVar {
			inst := c.b.Prog.Inst(to.Def)
			s.Label, s.Thread, s.Fn, s.Line = to.Def, int(inst.Thread), c.b.Prog.FnName(inst), inst.Pos.Line
		}
		out = append(out, s)
	}
	return out
}

func dedupLabels(in []ir.Label) []ir.Label {
	seen := make(map[ir.Label]bool, len(in))
	out := in[:0]
	for _, l := range in {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
