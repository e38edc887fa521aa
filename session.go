package canary

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"canary/internal/cache"
	"canary/internal/core"
	"canary/internal/digest"
	"canary/internal/diskstore"
	"canary/internal/failpoint"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/pipeline"
	"canary/internal/pta"
	"canary/internal/smt"
)

// Session holds the warm state that makes repeated analyses incremental:
//
//   - a digest-keyed per-function summary store: each function's points-to
//     transfer summary is cached under a structural content digest of the
//     function and its transitive callees, so after an edit only the
//     functions whose behavior could have changed (the reverse dependency
//     cone of the edit) re-enter the summary fixpoint;
//   - a cross-run SMT verdict store: each source–sink query's verdict and
//     model are cached under a structural serialization of its constraint
//     system, portable across the instruction-label shifts a re-parse
//     introduces, so unchanged pairs replay instead of re-solving.
//
// Both stores are content-addressed — a key changes exactly when the input
// it digests changes — so they never need invalidation and are safe to
// share across unrelated programs. The determinism contract is preserved:
// an analysis through a warm Session returns byte-identical reports,
// guards, traces, and schedules to a cold one; only the stats describing
// the work performed differ.
//
// A Session is safe for concurrent use by multiple goroutines (canaryd
// shares one across jobs). The zero-value *Session (nil) is valid and
// means "no warm state": every package-level entry point runs through it.
type Session struct {
	summaries *pta.Store
	verdicts  *smt.VerdictStore

	// disk, when non-nil, is the persistent backend both warm stores are
	// tiered over (see NewSessionOnDisk); tiers holds the write-behind
	// wrappers so Flush/Close can drain them.
	disk  *diskstore.Store
	tiers []*diskstore.Tiered

	// Panic-isolation observables: how many panics this session's
	// analyses recovered into ErrInternal errors, and how many summary
	// entries Quarantine evicted as possibly poisoned.
	panics      atomic.Uint64
	quarantined atomic.Uint64
}

// NewSession returns an empty in-memory warm store with default bounds;
// its state dies with the process.
func NewSession() *Session {
	return &Session{
		summaries: pta.NewStore(0),
		verdicts:  smt.NewVerdictStore(0),
	}
}

// NewSessionOnDisk returns a warm session whose summary and verdict
// stores are tiered over the given persistent disk store (under the
// "summary" and "verdict" namespaces): lookups try memory then disk,
// writes land in memory and flush to disk asynchronously. A nil ds
// degrades to NewSession. The caller may share ds with other tiers
// (canaryd puts its result cache on the same store).
func NewSessionOnDisk(ds *diskstore.Store) *Session {
	if ds == nil {
		return NewSession()
	}
	st := diskstore.NewTiered(cache.New(0), ds.NS("summary"), 0)
	vt := diskstore.NewTiered(cache.New(smt.DefaultVerdictEntries), ds.NS("verdict"), 0)
	return &Session{
		summaries: pta.NewStoreOn(st),
		verdicts:  smt.NewVerdictStoreOn(vt),
		disk:      ds,
		tiers:     []*diskstore.Tiered{st, vt},
	}
}

// NewPersistentSession opens (or reopens) the content-addressed disk
// store rooted at dir, bounded to maxBytes (<= 0 selects the diskstore
// default), and returns a warm session tiered over it. A fresh process
// pointed at a populated dir starts warm: unchanged functions load their
// summaries and unchanged source–sink pairs replay their verdicts from
// disk, with output byte-identical to a cold run. Call Close (or at
// least Flush) before process exit so write-behind entries land.
func NewPersistentSession(dir string, maxBytes int64) (*Session, error) {
	ds, err := diskstore.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return NewSessionOnDisk(ds), nil
}

// Flush blocks until every warm-store write enqueued so far has reached
// the disk store. A no-op for nil and memory-only sessions.
func (s *Session) Flush() {
	if s == nil {
		return
	}
	for _, t := range s.tiers {
		t.Flush()
	}
}

// Close drains and stops the write-behind flushers. The session remains
// usable afterwards (reads still hit both tiers; new writes stay
// in-memory only). A no-op for nil and memory-only sessions.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	for _, t := range s.tiers {
		t.Close()
	}
	return nil
}

// DiskStats is a snapshot of a session's persistent-store counters (all
// zero for memory-only sessions): tiered lookups answered from disk,
// true disk misses, completed entry writes, checksum-failed entries
// healed to misses, GC evictions, write-behind drops, and the store's
// current footprint.
type DiskStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Writes         uint64 `json:"writes"`
	CorruptEntries uint64 `json:"corrupt_entries"`
	GCEvictions    uint64 `json:"gc_evictions"`
	DroppedWrites  uint64 `json:"dropped_writes"`
	Bytes          int64  `json:"bytes"`
	Entries        int64  `json:"entries"`
}

// DiskStats returns the persistent-store counters (zero for nil and
// memory-only sessions).
func (s *Session) DiskStats() DiskStats {
	if s == nil || s.disk == nil {
		return DiskStats{}
	}
	st := s.disk.Stats()
	out := DiskStats{
		Hits:           st.Hits,
		Misses:         st.Misses,
		Writes:         st.Writes,
		CorruptEntries: st.CorruptEntries,
		GCEvictions:    st.GCEvictions,
		Bytes:          st.Bytes,
		Entries:        st.Entries,
	}
	for _, t := range s.tiers {
		out.DroppedWrites += t.DroppedWrites()
	}
	return out
}

// ErrNoDiskStore is returned by ExportWarm/ImportWarm on a session
// without a persistent backend.
var ErrNoDiskStore = errors.New("canary: session has no persistent warm store")

// ExportWarm writes the session's whole persistent store (summaries,
// verdicts, and any co-tenant namespaces) as a single-file snapshot
// archive to w, for shipping a warm cache to another machine. Pending
// write-behind entries are flushed first. Returns the entry count.
func (s *Session) ExportWarm(w io.Writer) (int, error) {
	if s == nil || s.disk == nil {
		return 0, ErrNoDiskStore
	}
	s.Flush()
	return s.disk.Export(w)
}

// ImportWarm merges a snapshot archive into the session's persistent
// store. Entries failing verification are skipped — an import can add
// warm state, never corrupt it. Returns the imported entry count.
func (s *Session) ImportWarm(r io.Reader) (int, error) {
	if s == nil || s.disk == nil {
		return 0, ErrNoDiskStore
	}
	return s.disk.Import(r)
}

// verdictStore returns the verdict store, or nil for a nil session.
func (s *Session) verdictStore() *smt.VerdictStore {
	if s == nil {
		return nil
	}
	return s.verdicts
}

// SummaryStats returns the cumulative hit/miss counts of the per-function
// summary store (zero for a nil session).
func (s *Session) SummaryStats() (hits, misses uint64) {
	if s == nil {
		return 0, 0
	}
	return s.summaries.Stats()
}

// VerdictStats returns the cumulative hit/miss counts of the SMT verdict
// store (zero for a nil session).
func (s *Session) VerdictStats() (hits, misses uint64) {
	if s == nil {
		return 0, 0
	}
	return s.verdicts.Stats()
}

// PanicsRecovered returns how many pipeline panics this session's
// analyses have recovered into ErrInternal errors (zero for nil).
func (s *Session) PanicsRecovered() uint64 {
	if s == nil {
		return 0
	}
	return s.panics.Load()
}

// QuarantinedSummaries returns how many per-function summary entries
// Quarantine has evicted from this session's store (zero for nil).
func (s *Session) QuarantinedSummaries() uint64 {
	if s == nil {
		return 0
	}
	return s.quarantined.Load()
}

// Quarantine evicts every per-function summary of src from the session's
// store and reports how many entries were removed. It is the recovery
// step after a panic during src's analysis: the panicking run may have
// stored half-built state under src's digests, and evicting those keys
// restores the invariant that a warm analysis is byte-identical to a
// cold one. The verdict store needs no eviction — verdicts are written
// only after a completed solve. A nil session quarantines nothing.
//
// Quarantine is deliberately infallible: if src no longer parses (or the
// parser itself is the faulty stage), there is nothing keyed under it to
// evict, and the method returns 0.
func (s *Session) Quarantine(src string) (evicted int) {
	if s == nil {
		return 0
	}
	defer func() {
		// A parse-stage panic (e.g. an armed parse failpoint) must not
		// escape the recovery path that called us.
		_ = recover()
	}()
	ast, err := lang.Parse(src)
	if err != nil {
		return 0
	}
	for _, k := range digest.SummaryKeys(ast) {
		if s.summaries.Delete(k) {
			evicted++
		}
	}
	s.quarantined.Add(uint64(evicted))
	return evicted
}

// recordPanic is the shared recovery bookkeeping of the API-boundary
// recover()s: count the panic and quarantine the program that caused it.
func (s *Session) recordPanic(src string) {
	if s == nil {
		return
	}
	s.panics.Add(1)
	s.Quarantine(src)
}

// Analyze is Analyze running against the session's warm stores.
func (s *Session) Analyze(src string, opt Options) (*Result, error) {
	return s.AnalyzeContext(context.Background(), src, opt)
}

// AnalyzeContext is AnalyzeContext running against the session's warm
// stores. It runs the live session's spine once, so the one-shot and
// edit-streaming entry points share a single analysis spine rather than
// maintaining two; it keeps nothing of the revision afterwards.
func (s *Session) AnalyzeContext(ctx context.Context, src string, opt Options) (*Result, error) {
	return (&LiveSession{s: s, opt: opt}).runSpine(ctx, src, nil)
}

// NewAnalysis is NewAnalysis running against the session's warm stores.
func (s *Session) NewAnalysis(src string, opt Options) (*Analysis, error) {
	return s.NewAnalysisContext(context.Background(), src, opt)
}

// classifyStageErr converts an error escaping a pipeline.Runner stage
// into its public form: a captured panic counts against the session,
// quarantines src's summaries, and wraps ErrInternal (keeping the
// original panic value in the message); anything else goes through
// wrapAbort so injected faults and context cancellation keep their typed
// causes.
func classifyStageErr(s *Session, src string, err error) error {
	var pe *pipeline.PanicError
	if errors.As(err, &pe) {
		s.recordPanic(src)
		return fmt.Errorf("canary: %w: %v", ErrInternal, pe.Value)
	}
	return wrapAbort(err)
}

// NewAnalysisContext parses and lowers src and builds the VFG, loading the
// transfer summaries of digest-unchanged functions from the session's
// store instead of recomputing them. The checking stage of the returned
// Analysis consults the session's verdict store. A nil receiver degrades
// to the cold path (every function analyzed, every query solved).
//
// Every stage runs through the pipeline.Runner, which uniformly applies
// the cancellation checkpoint, entry-site fault injection, panic capture,
// and span timing; a panic escaping any build stage is recovered into an
// error wrapping ErrInternal, after quarantining src's per-function
// summaries from the session so one poisoned run cannot corrupt warm
// state for later jobs.
func (s *Session) NewAnalysisContext(ctx context.Context, src string, opt Options) (*Analysis, error) {
	return s.newAnalysisContext(ctx, src, opt, nil)
}

// analysisInput carries the front end's work into and out of the spine.
// A live session parses the patched source to validate the edit batch
// and keys it to compute the invalidated cone; handing both over means
// the pipeline does not parse or digest the same revision a second time.
// Fields left nil are computed by the spine and written back, so the
// session keeps them as the baseline for its next edit. A nil
// *analysisInput keeps nothing: one-shot analyses hold no parse beyond
// lowering.
type analysisInput struct {
	ast   *lang.Program
	index *digest.KeyIndex // summary keys; computed only with a session

	// digest asks the lower stage for the lowered program's digest
	// (ir.Digest), which it writes to lowered. kept is the result of the
	// last clean analysis, whose lowering digested to keptKey: when the
	// new lowering digests alike, the build returns no Analysis and cut
	// receives kept's findings (cutoffResult) instead.
	digest  bool
	lowered cache.Key
	kept    *Result
	keptKey cache.Key
	cut     *Result
}

func (s *Session) newAnalysisContext(ctx context.Context, src string, opt Options, in *analysisInput) (a *Analysis, err error) {
	defer func() {
		// Last-resort net for panics outside the runner-wrapped stages.
		if r := recover(); r != nil {
			s.recordPanic(src)
			a, err = nil, fmt.Errorf("canary: %w: %v", ErrInternal, r)
		}
	}()
	if _, err := memoryModelOf(opt); err != nil {
		return nil, err
	}
	run := pipeline.NewRunner(failpoint.Inject)

	if in == nil {
		in = &analysisInput{}
	}
	ast := in.ast
	if err := run.Run(ctx, pipeline.StageParse, func(sp *pipeline.Span) error {
		if ast == nil {
			var perr error
			if ast, perr = lang.Parse(src); perr != nil {
				return perr
			}
		}
		sp.Steps = int64(len(ast.Funcs))
		return nil
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}

	// Summarize here (rather than inside ir.Lower) so the digest-keyed
	// store can satisfy unchanged functions. With no session there is no
	// store to hit, so no keys: this computes exactly what Lower would
	// have, and all functions count as reanalyzed.
	in.ast = ast
	var keys map[string]cache.Key
	if s != nil {
		if in.index == nil {
			in.index = digest.NewKeyIndex(ast)
		}
		keys = in.index.Keys()
	}
	var sums map[string]*pta.Summary
	var hits, reanalyzed int
	if err := run.Run(ctx, pipeline.StagePTA, func(sp *pipeline.Span) error {
		var serr error
		sums, hits, reanalyzed, serr = pta.SummariesKeyedContext(ctx, ast, keys, s.summaryStore())
		sp.Steps = int64(reanalyzed)
		sp.CacheHits = uint64(hits)
		return serr
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}

	var prog *ir.Program
	if err := run.Run(ctx, pipeline.StageLower, func(sp *pipeline.Span) error {
		var lerr error
		prog, lerr = ir.Lower(ast, ir.Options{
			UnrollDepth: opt.UnrollDepth,
			InlineDepth: opt.InlineDepth,
			Entry:       opt.Entry,
			Summaries:   sums,
		})
		if prog != nil {
			sp.Steps = int64(prog.NumInsts())
			if lerr == nil && in.digest {
				in.lowered = ir.Digest(prog)
			}
		}
		return lerr
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}
	if in.kept != nil && in.lowered == in.keptKey {
		in.cut = cutoffResult(in.kept, run, hits, reanalyzed)
		return nil, nil
	}

	// The VFG build interleaves the MHP, Alg. 1 data-dependence, and
	// Alg. 2 interference passes inside one fixpoint; the builder times
	// each internally, the vfg span keeps the residual (merge and
	// bookkeeping), and the three sub-stages are recorded as their own
	// spans below so the trace partitions the build's wall-clock.
	var b *core.Builder
	if err := run.Run(ctx, pipeline.StageVFG, func(sp *pipeline.Span) error {
		var berr error
		b, berr = core.BuildContext(ctx, prog, core.BuildOptions{
			EnableMHP:       opt.EnableMHP,
			GuardCap:        opt.GuardCap,
			MaxIterations:   opt.Budgets.MaxFixpointRounds,
			Workers:         opt.Workers,
			SummaryHits:     hits,
			FuncsReanalyzed: reanalyzed,
		})
		if b == nil {
			return berr
		}
		st := b.Stats
		sp.Steps = int64(st.Iterations)
		sp.Budget = int64(opt.Budgets.MaxFixpointRounds)
		sp.CacheHits = st.GuardCacheHits
		sp.Wall = max(st.BuildTime-st.MHPTime-st.DataDepTime-st.InterferTime, 0)
		return berr
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}
	run.Record(pipeline.Span{Stage: pipeline.StageMHP, Wall: b.Stats.MHPTime})
	run.Record(pipeline.Span{
		Stage: pipeline.StageDataDep,
		Wall:  b.Stats.DataDepTime,
		Steps: int64(b.Stats.DataDepEdges),
	})
	run.Record(pipeline.Span{
		Stage: pipeline.StageInterference,
		Wall:  b.Stats.InterferTime,
		Steps: int64(b.Stats.InterferenceEdges),
	})
	return &Analysis{opt: opt, b: b, session: s, src: src, run: run}, nil
}

// cutoffResult is the result of a save whose lowering digested like the
// kept clean run's: the findings are a function of the lowered program
// and the options alone, so kept's reports, threads, instruction count,
// degradation and build and check stats stand. The summary counts and
// the trace (parse, pta and lower only) are this save's.
func cutoffResult(kept *Result, run *pipeline.Runner, hits, reanalyzed int) *Result {
	res := *kept
	res.VFG.SummaryHits = hits
	res.VFG.FuncsReanalyzed = reanalyzed
	res.Trace = traceOf(run)
	return &res
}

// cleanRun reports whether res may be replayed by a later cutoff: no
// panic was recovered and no report carries an internal error, either of
// which may come from an injected fault rather than from the program.
func cleanRun(res *Result) bool {
	if res.Check.PanicsRecovered > 0 {
		return false
	}
	for _, r := range res.Reports {
		if strings.HasPrefix(r.Reason, "internal-error") {
			return false
		}
	}
	return true
}

// summaryStore returns the summary store, or nil for a nil session.
func (s *Session) summaryStore() *pta.Store {
	if s == nil {
		return nil
	}
	return s.summaries
}

// ErrSessionClosed is returned by LiveSession methods after Close.
var ErrSessionClosed = errors.New("canary: live session is closed")

// ErrEditRejected wraps every edit-batch rejection — an out-of-range or
// overlapping span, or a patch whose result no longer parses. A
// rejected batch leaves the session's revision and findings untouched,
// so the client can correct and resubmit against the same Seq.
var ErrEditRejected = errors.New("canary: edit rejected")

// LiveConfig tunes a live session's analysis runs beyond Options.
type LiveConfig struct {
	// StageTimeout, when positive, separately bounds the build and check
	// halves of every (re-)analysis, mirroring canaryd's -stage-timeout
	// split of one-shot jobs.
	StageTimeout time.Duration
}

// LiveSession is the edit-native analysis engine: it holds the current
// revision of one program, accepts line-span edit batches against it,
// re-analyzes through the session's warm stores, and reports each
// batch's effect as a FindingsDelta. The determinism contract extends
// the warm-session one: folding the open delta and every edit delta in
// order reproduces, byte for byte, the findings a cold full analysis of
// the final revision would emit.
//
// Four fast paths make edits cheaper than one-shot re-analysis. First,
// an edit whose canonical source (comments and whitespace stripped,
// line structure preserved) is unchanged skips the pipeline entirely —
// the previous findings are provably still exact — and that verdict is
// reached on the edited lines alone. Second, the front end of a real
// edit is proportional to the edit (digest.Revision.Apply): the text is
// spliced, only the declarations the edit touched are re-parsed, and
// only their reverse-reachable cone is re-keyed. Third, the pipeline
// runs with the parent Session's digest-keyed summary and verdict stores
// hot, so only the invalidated cone is recomputed. Fourth, early cutoff:
// the session keeps the digest (ir.Digest) of the program its last
// clean analysis lowered, and a save that lowers to the same program —
// a changed constant, which the IR does not carry, is the common case —
// stops after lowering and keeps the previous findings, since they are
// a function of the lowered program and the options alone. A run with
// an internal-error report or a recovered panic is never replayed.
//
// A LiveSession is safe for concurrent use; edits serialize against
// each other and against reads. The parent *Session may be nil (no warm
// state) — deltas stay exact, only the reuse disappears.
type LiveSession struct {
	s   *Session
	opt Options
	lc  LiveConfig

	mu     sync.Mutex
	closed bool
	seq    int
	// rev is the current revision: its text, its parse and its key
	// index, all seeded by the open analysis (the index stays nil under
	// a nil *Session until the first semantic edit builds it).
	rev     digest.Revision
	res     *Result
	reports []Report
	// lowered is the digest of the program the last analysis lowered, or
	// the zero key when that run was not clean (cleanRun) and must not be
	// replayed.
	lowered cache.Key
}

// Open runs the initial full analysis of src and returns the live
// session together with its opening delta (Seq 0, every finding Added —
// folding it into an empty findings list yields the initial findings).
func (s *Session) Open(src string, opt Options) (*LiveSession, *FindingsDelta, error) {
	return s.OpenLive(context.Background(), src, opt, LiveConfig{})
}

// OpenLive is Open with cooperative cancellation and live-session
// configuration.
func (s *Session) OpenLive(ctx context.Context, src string, opt Options, lc LiveConfig) (*LiveSession, *FindingsDelta, error) {
	l := &LiveSession{s: s, opt: opt, lc: lc}
	in := analysisInput{digest: true}
	res, err := l.runSpine(ctx, src, &in)
	if err != nil {
		return nil, nil, err
	}
	l.rev = digest.Revision{Src: src, AST: in.ast, Index: in.index}
	l.keep(res, in.lowered)
	d := DiffReports(nil, res.Reports)
	d.Seq = 0
	d.Reanalyzed = true
	return l, d, nil
}

// keep records res, whose lowering digested to lowered, as the session's
// last analysis.
func (l *LiveSession) keep(res *Result, lowered cache.Key) {
	l.res = res
	l.reports = res.Reports
	l.lowered = cache.Key{}
	if cleanRun(res) {
		l.lowered = lowered
	}
}

// runSpine is the one analysis path every entry point shares: the
// session-warm build then check, optionally with canaryd's per-stage
// wall-clock split. A non-nil in hands the front end's work over and
// receives the parse and key index the build settled on, so callers can
// keep an edit baseline without re-parsing or re-digesting. A build that
// cut off returns its in.cut unchecked.
func (l *LiveSession) runSpine(ctx context.Context, src string, in *analysisInput) (*Result, error) {
	if l.lc.StageTimeout <= 0 {
		a, err := l.s.newAnalysisContext(ctx, src, l.opt, in)
		if err != nil {
			return nil, err
		}
		if a == nil {
			return in.cut, nil
		}
		return a.CheckContext(ctx)
	}
	buildCtx, cancelBuild := context.WithTimeout(ctx, l.lc.StageTimeout)
	a, err := l.s.newAnalysisContext(buildCtx, src, l.opt, in)
	cancelBuild()
	if err != nil {
		return nil, err
	}
	if a == nil {
		return in.cut, nil
	}
	checkCtx, cancelCheck := context.WithTimeout(ctx, l.lc.StageTimeout)
	defer cancelCheck()
	return a.CheckContext(checkCtx)
}

// ApplyEdits applies one batch of line-span edits to the current
// revision and returns the findings delta it caused. Invalid batches
// and unparsable patches return an error wrapping ErrEditRejected with
// the session unchanged; analysis failures (cancellation, injected
// faults) likewise leave the previous revision and findings in place.
func (l *LiveSession) ApplyEdits(ctx context.Context, edits []Edit) (*FindingsDelta, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrSessionClosed
	}
	dEdits := make([]digest.Edit, len(edits))
	for i, e := range edits {
		dEdits[i] = digest.Edit{Start: e.Start, End: e.End, Text: e.Text}
	}
	next, trivial, invalidated, err := l.rev.Apply(dEdits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEditRejected, err)
	}
	if trivial {
		// Representation-only edit: the canonical source (comments and
		// trailing whitespace stripped, line structure preserved) is
		// unchanged, so the token stream — and with it parseability,
		// every function's digest, and every finding — is provably
		// identical to the revision already analyzed. No parse needed.
		l.rev = next
		l.seq++
		return &FindingsDelta{Seq: l.seq, Unchanged: len(l.reports)}, nil
	}
	in := analysisInput{ast: next.AST, index: next.Index, digest: true}
	if l.lowered != (cache.Key{}) {
		in.kept, in.keptKey = l.res, l.lowered
	}
	res, err := l.runSpine(ctx, next.Src, &in)
	if err != nil {
		return nil, err
	}
	var d *FindingsDelta
	if in.cut != nil {
		// Early cutoff: the same program, hence the same findings.
		d = &FindingsDelta{Unchanged: len(res.Reports)}
	} else {
		d = DiffReports(l.reports, res.Reports)
	}
	d.Seq = l.seq + 1
	d.Reanalyzed = true
	d.Invalidated = invalidated
	l.rev = next
	l.keep(res, in.lowered)
	l.seq++
	return d, nil
}

// Seq returns the current revision number (0 after Open, +1 per
// accepted edit batch).
func (l *LiveSession) Seq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Source returns the current revision's source text ("" after Close).
func (l *LiveSession) Source() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rev.Src
}

// Reports returns the current findings. The slice is shared: callers
// must not mutate it.
func (l *LiveSession) Reports() []Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reports
}

// Result returns the full result of the most recent analysis run (nil
// after Close). Representation-only edits do not re-run the pipeline,
// so after one the stats describe the last real run while the reports
// remain exact for the current revision. After an early-cutoff save the
// build and check stats are those of the run whose findings it kept,
// while the summary counts and the trace are the save's own.
func (l *LiveSession) Result() *Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.res
}

// Close marks the session closed and releases its held revision and
// findings. Further edits return ErrSessionClosed. The parent Session
// and its warm stores are unaffected.
func (l *LiveSession) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.rev = digest.Revision{}
	l.res = nil
	l.reports = nil
}
