// Package core implements Canary's primary contribution: the thread-modular
// dependence analysis that builds the interference-aware guarded value-flow
// graph (PLDI 2021, §4), and the guarded source–sink reachability checking
// that detects inter-thread value-flow bugs over it (§5).
//
// The two analysis phases follow the paper's Alg. 1 and Alg. 2:
//
//  1. Data dependence (Alg. 1): per-thread, flow-sensitive, path-guarded
//     points-to computation over the partial-SSA IR; top-level points-to
//     facts live in a global guarded points-to graph, address-taken state is
//     propagated through the (acyclic, bounded) CFG, and indirect
//     store→load flows become guarded dd edges in the VFG.
//
//  2. Interference dependence (Alg. 2): an escape analysis seeds the set of
//     escaped objects (objects passed to forks and globals), the
//     pointed-to-by sets Pted(o) are read off the VFG by guarded
//     reachability, and cross-thread store/load pairs over a common escaped
//     object — filtered by the MHP analysis (§6) — become interference
//     edges. New edges enlarge points-to facts, escaped-object sets, and
//     Pted sets, so the whole pipeline iterates to a fixed point
//     (the cyclic dependence the paper notes) without ever running an
//     exhaustive whole-program pointer analysis.
package core

import (
	"context"
	"slices"
	"time"

	"canary/internal/failpoint"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/mhp"
	"canary/internal/slab"
	"canary/internal/vfg"
)

// BuildOptions configures VFG construction.
type BuildOptions struct {
	// EnableMHP prunes non-may-happen-in-parallel store/load pairs during
	// the interference analysis (§6). On by default via DefaultBuild.
	EnableMHP bool
	// GuardCap widens any guard whose formula grows beyond this many nodes
	// to true (a sound overapproximation that keeps guards small).
	GuardCap int
	// MaxIterations bounds the outer Alg. 1/Alg. 2 fixpoint defensively.
	MaxIterations int
	// Workers is the size of the pool the per-thread Alg. 1 passes and the
	// Alg. 2 interference-pair guards are partitioned over inside each
	// fixpoint iteration. <= 0 means one worker per logical CPU. The graph
	// produced is byte-identical for every worker count (see parallel.go).
	Workers int
	// SummaryHits and FuncsReanalyzed report the delta path taken by the
	// summarize step that preceded lowering (canary.Session's digest-keyed
	// summary store): how many functions' Trans(F) summaries were loaded
	// unchanged, and how many re-entered the fixpoint. The builder copies
	// them into BuildStats; a cold (session-less) build reanalyzes every
	// function. They do not alter the build itself — the graph is
	// byte-identical either way.
	SummaryHits     int
	FuncsReanalyzed int
}

// DefaultBuild mirrors the paper's configuration.
func DefaultBuild() BuildOptions {
	return BuildOptions{EnableMHP: true, GuardCap: 96, MaxIterations: 32}
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.GuardCap <= 0 {
		o.GuardCap = 96
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 32
	}
	return o
}

// BuildStats reports VFG-construction work, used by the evaluation.
type BuildStats struct {
	Iterations        int
	DirectEdges       int
	DataDepEdges      int
	InterferenceEdges int
	// FilteredEdges counts candidate dependence edges refuted at
	// construction time by the semi-decision guard filter (§5.2, opt. 1):
	// the Fig. 2 θ1 ∧ ¬θ1 edge lands here.
	FilteredEdges  int
	EscapedObjects int
	BuildTime      time.Duration
	// ParallelTime is the portion of BuildTime spent inside the parallel
	// regions (per-thread passes and interference-guard evaluation); the
	// remainder is the sequential merge that keeps the graph deterministic.
	ParallelTime time.Duration
	// MHPTime, DataDepTime, and InterferTime split BuildTime by pipeline
	// stage: the MHP analysis (§6), the Alg. 1 data-dependence passes
	// (snapshot passes plus the deterministic merge, summed over fixpoint
	// iterations), and the Alg. 2 escape + interference passes. They feed
	// the per-stage trace spans; like every duration here they are outside
	// the determinism contract.
	MHPTime      time.Duration
	DataDepTime  time.Duration
	InterferTime time.Duration
	// GuardCacheHits counts guard hash-cons hits during this build: formula
	// constructions that returned an already-interned node instead of
	// allocating a new one.
	GuardCacheHits uint64
	// SummaryHits / FuncsReanalyzed mirror BuildOptions: the incremental
	// summarize step's reuse split (hits + reanalyzed = total functions).
	SummaryHits     int
	FuncsReanalyzed int
	// InstsSwept counts the instructions the Alg. 1 passes visited,
	// summed over rounds: a thread's instructions count once per round it
	// was dirty.
	InstsSwept int
	// FixpointExhausted reports that the outer fixpoint stopped at
	// MaxIterations while still making progress — the graph is a sound
	// under-approximation of the converged one, and results derived from
	// it are flagged degraded rather than silently final.
	FixpointExhausted bool
}

// Builder holds the state of the two dependence analyses and the resulting
// interference-aware VFG.
type Builder struct {
	Prog *ir.Program
	G    *vfg.Graph
	MHP  *mhp.Info
	opt  BuildOptions

	// pts is the guarded top-level points-to graph PG_top, one row per
	// variable (indexed by VarID) of (object, condition) pairs sorted by
	// object. rows carves the rows' storage.
	pts  []ptsRow
	rows slab.Slab[ptsEntry]
	// ptsItems counts (var, obj) pairs, to detect fixpoint progress
	// item-wise (guard refinement alone does not retrigger iteration).
	ptsItems int

	// escaped is the EspObj set of Alg. 2, indexed by ObjID.
	escaped []bool

	// dirty, indexed by thread ID, marks the threads that must re-run
	// Alg. 1 in the next round: some points-to set they read changed since
	// their last pass. Only dirty threads are re-analyzed (the
	// thread-modular decomposition that keeps the iteration cheap).
	dirty []bool
	// readers lists, for each variable, the threads whose Alg. 1 pass
	// reads its points-to set: the Copy and φ operands, the load and store
	// pointers, and the stored values (read at the loads a store reaches).
	// It is one CSR array: variable v's threads are
	// readers[readerStart[v]:readerStart[v+1]]. A fact that changes pts(v)
	// dirties v's readers, except the thread whose own pass produced it
	// (see markDirty).
	readerStart []int32
	readers     []int32
	// allDirty re-runs every thread in every round regardless of dirty —
	// the schedule the readers rule must be indistinguishable from, used
	// by the differential tests.
	allDirty bool

	// Precomputed instruction lists reused across fixpoint iterations.
	storeInsts []*ir.Inst
	loadInsts  []*ir.Inst

	// states holds the Alg. 1 passes' per-block out-states, every thread's
	// blocks in one array from stateBase[thread] on. Threads own disjoint
	// ranges, so concurrent passes share it without locking.
	states    []*memState
	stateBase []int

	Stats BuildStats
}

// Build runs the full thread-modular dependence analysis and returns the
// builder holding the interference-aware VFG.
func Build(prog *ir.Program, opt BuildOptions) *Builder {
	b, _ := BuildContext(context.Background(), prog, opt)
	return b
}

// BuildContext is Build with cooperative cancellation: the outer
// Alg. 1/Alg. 2 fixpoint checks ctx between rounds and aborts with ctx's
// error (context.Canceled or context.DeadlineExceeded) when it is done.
// A round in flight always runs to completion — the checkpoints sit at the
// deterministic sequential merge points, so a canceled build never leaves
// a half-applied effect log behind; the partially built graph is simply
// discarded (nil is returned alongside the error).
func BuildContext(ctx context.Context, prog *ir.Program, opt BuildOptions) (*Builder, error) {
	opt = opt.withDefaults()
	// BuildTime covers the whole build, MHP analysis included, so the
	// per-stage times below are disjoint parts of it.
	start := time.Now()
	b := newBuilder(prog, opt)
	b.Stats.MHPTime = time.Since(start)
	if err := b.fixpoint(ctx); err != nil {
		return nil, err
	}
	b.Stats.BuildTime = time.Since(start)
	return b, nil
}

// fixpoint runs the outer Alg. 1/Alg. 2 iteration to convergence (or
// MaxIterations) and fills in the build statistics.
func (b *Builder) fixpoint(ctx context.Context) error {
	b.Stats.SummaryHits = b.opt.SummaryHits
	b.Stats.FuncsReanalyzed = b.opt.FuncsReanalyzed
	workers := workerCount(b.opt.Workers)
	hits0, _ := guard.InternStats()
	converged := false
	for iter := 0; iter < b.opt.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ferr := failpoint.Inject(failpoint.SiteBuildFixpoint); ferr != nil {
			return ferr
		}
		b.Stats.Iterations++
		// Phase 1 (Alg. 1): intra-thread data dependence over the dirty
		// threads.
		progressed := b.dataDepRound(workers)
		// Phase 2 (Alg. 2): escape + interference dependence.
		istart := time.Now()
		b.escapeAnalysis()
		if b.interferencePass(workers) {
			progressed = true
		}
		b.Stats.InterferTime += time.Since(istart)
		if !progressed {
			converged = true
			break
		}
	}
	b.Stats.FixpointExhausted = !converged
	hits1, _ := guard.InternStats()
	b.Stats.GuardCacheHits = hits1 - hits0
	for _, esc := range b.escaped {
		if esc {
			b.Stats.EscapedObjects++
		}
	}
	for kind, n := range b.G.EdgeCountByKind() {
		switch kind {
		case vfg.EdgeDirect, vfg.EdgeObj:
			b.Stats.DirectEdges += n
		case vfg.EdgeDD:
			b.Stats.DataDepEdges += n
		case vfg.EdgeInterference:
			b.Stats.InterferenceEdges += n
		}
	}
	return nil
}

// dataDepRound runs one Alg. 1 round over the dirty threads and reports
// whether it progressed. The passes run concurrently over a frozen
// snapshot of the points-to graph, each logging its effects (new facts
// and edges) privately; the logs are then replayed in thread-ID order, so
// the graph is byte-identical to a sequential build for any worker count.
// Replaying dirties the readers of every fact that changed, which selects
// the threads of the next round.
func (b *Builder) dataDepRound(workers int) bool {
	start := time.Now()
	var threads []*ir.Thread
	for _, th := range b.Prog.Threads {
		if b.dirty[th.ID] || b.allDirty {
			threads = append(threads, th)
			b.dirty[th.ID] = false
		}
	}
	passes := make([]*passCtx, len(threads))
	runIndexed(workers, len(threads), func(i int) {
		passes[i] = b.dataDepPass(threads[i])
	})
	b.Stats.ParallelTime += time.Since(start)
	progressed := false
	for i, p := range passes {
		b.Stats.InstsSwept += p.swept
		if b.applyEffects(&p.eff) {
			progressed = true
		}
		clear(b.blockStates(threads[i]))
		passes[i] = nil // the log is spent; let the collector have it
	}
	b.Stats.DataDepTime += time.Since(start)
	return progressed
}

// newBuilder allocates a Builder over prog with its indexes (MHP info,
// store/load lists, readers index) built and every thread dirty, ready for
// the first fixpoint round.
func newBuilder(prog *ir.Program, opt BuildOptions) *Builder {
	b := &Builder{
		Prog:    prog,
		G:       vfg.New(prog),
		MHP:     mhp.Analyze(prog),
		opt:     opt,
		pts:     make([]ptsRow, len(prog.Vars)+1),
		escaped: make([]bool, len(prog.Objects)+1),
		dirty:   make([]bool, len(prog.Threads)),

		stateBase: make([]int, len(prog.Threads)),
	}
	blocks := 0
	for _, th := range prog.Threads {
		b.stateBase[th.ID] = blocks
		blocks += len(th.Blocks)
	}
	b.states = make([]*memState, blocks)
	b.indexProgram()
	return b
}

// blockStates returns th's range of b.states, indexed by Block.Local.
func (b *Builder) blockStates(th *ir.Thread) []*memState {
	base := b.stateBase[th.ID]
	return b.states[base : base+len(th.Blocks)]
}

// cap widens oversized guards to true (sound for may-analyses).
func (b *Builder) cap(f *guard.Formula) *guard.Formula {
	if f.Size() > b.opt.GuardCap {
		return guard.True()
	}
	return f
}

// indexProgram precomputes the store/load lists and the readers index,
// and marks every thread dirty for the first pass.
func (b *Builder) indexProgram() {
	// Collect the (variable, thread) read pairs, then lay them out as CSR
	// rows, dropping a thread's repeated reads of one variable.
	type read struct{ v, thread int32 }
	var reads []read
	addReader := func(v ir.VarID, thread int32) {
		if v != 0 {
			reads = append(reads, read{int32(v), thread})
		}
	}
	for _, inst := range b.Prog.Insts() {
		switch inst.Op {
		case ir.OpCopy:
			addReader(inst.Val, inst.Thread)
		case ir.OpPhi:
			for _, op := range inst.Ops {
				addReader(op.Var, inst.Thread)
			}
		case ir.OpLoad:
			b.loadInsts = append(b.loadInsts, inst)
			addReader(inst.Ptr, inst.Thread)
		case ir.OpStore:
			b.storeInsts = append(b.storeInsts, inst)
			addReader(inst.Ptr, inst.Thread)
			addReader(inst.Val, inst.Thread)
		}
	}
	start, list := csrRows(len(b.Prog.Vars)+1, func(add func(int, int32)) {
		for _, r := range reads {
			add(int(r.v), r.thread)
		}
	})
	// Compact each row to its distinct threads, in first-read order.
	n := int32(0)
	for v := 0; v+1 < len(start); v++ {
		lo, hi := start[v], start[v+1]
		start[v] = n
		for _, t := range list[lo:hi] {
			if !slices.Contains(list[start[v]:n], t) {
				list[n] = t
				n++
			}
		}
	}
	start[len(start)-1] = n
	b.readerStart, b.readers = start, list[:n]
	for i := range b.dirty {
		b.dirty[i] = true
	}
}

// noProducer is the producer of facts no Alg. 1 pass logged: the
// interference pass's cyclic enlargement.
const noProducer = -1

// markDirty flags the readers of v for the next Alg. 1 round because
// pts(v) changed, except producer, the thread whose own pass logged the
// change. In Alg. 1 only v's defining thread adds facts to v, and its pass
// already swept them through its overlay: replaying its log reproduces
// exactly the state that pass read, so re-running it would log nothing
// new.
func (b *Builder) markDirty(v ir.VarID, producer int) {
	for _, t := range b.readers[b.readerStart[v]:b.readerStart[v+1]] {
		if int(t) != producer {
			b.dirty[t] = true
		}
	}
}

// ptsAdd joins (o, g) into pts(v) on behalf of producer (a thread ID, or
// noProducer); it reports whether the pair is new. A new pair or a widened
// guard dirties v's readers.
func (b *Builder) ptsAdd(v ir.VarID, o ir.ObjID, g *guard.Formula, producer int) bool {
	if g.IsFalse() {
		return false
	}
	row := b.pts[v]
	i, ok := row.find(o)
	if ok {
		if w := b.cap(guard.Or(row[i].g, g)); w != row[i].g {
			row[i].g = w
			b.markDirty(v, producer)
		}
		return false
	}
	b.pts[v] = b.rows.Insert(row, i, ptsEntry{o, b.cap(g)})
	b.ptsItems++
	b.markDirty(v, producer)
	return true
}

// Escaped reports whether object o escaped its thread.
func (b *Builder) Escaped(o ir.ObjID) bool {
	return o > 0 && int(o) < len(b.escaped) && b.escaped[o]
}
