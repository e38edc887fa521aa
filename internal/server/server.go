// Package server implements canaryd's long-running analysis service: a
// bounded job queue feeding a fixed-size scheduler of concurrent analyses,
// fronted by a content-addressed result cache and exposed over a small
// JSON HTTP API with plain-text metrics.
//
// The daemon is the deployment shape that lets the process-wide caches
// built for the one-shot pipeline — the guard hash-cons interner and the
// per-function summary store — actually amortize across requests: a warm repeat of
// a submission is answered from the content store byte-identically to its
// cold run (the determinism contract makes the cached bytes exact), and
// even a novel program re-interns most of its guard formulas.
//
// Lifecycle: New starts the worker pool immediately; Submit admits work
// until BeginDrain (SIGTERM in canaryd) flips the server into draining
// mode, after which new submissions are refused with ErrDraining while
// every already-admitted job — queued or running — completes before
// Shutdown returns.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/cache"
	"canary/internal/diskstore"
	"canary/internal/failpoint"
	"canary/internal/fleet"
	"canary/internal/membership"
	"canary/internal/pipeline"
)

// Submission rejections. The HTTP layer maps both to 503.
var (
	// ErrDraining is returned by Submit after BeginDrain.
	ErrDraining = errors.New("server is draining")
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity (backpressure: the client should retry later).
	ErrQueueFull = errors.New("job queue full")
)

// Config sizes the service. The zero value of any field selects its
// default.
type Config struct {
	// MaxConcurrent is the number of analyses run simultaneously (the
	// scheduler's worker count). Each analysis internally uses the
	// pipeline's own worker pools (Options.Workers), so the default keeps
	// this small rather than one per CPU.
	MaxConcurrent int
	// QueueDepth bounds the number of admitted-but-unstarted jobs.
	QueueDepth int
	// JobTimeout caps every job's analysis deadline. A request may ask for
	// less via timeout_ms, never for more.
	JobTimeout time.Duration
	// StageTimeout, when positive, additionally caps each pipeline stage
	// (VFG build, checking) with its own wall-clock deadline inside the
	// job's overall deadline. Wall-clock budgets live only here in the
	// daemon — the library's Budgets are step-counted so library output
	// stays deterministic; a daemon operator trades that for liveness
	// explicitly by setting this.
	StageTimeout time.Duration
	// MaxRequestBytes bounds a POST /v1/analyze body; an oversized body is
	// refused with 413 before any of it is buffered past the limit.
	// <= 0 selects the 16 MiB default.
	MaxRequestBytes int64
	// CacheEntries bounds the content-addressed result store.
	CacheEntries int
	// CacheDir, when set, spills the daemon's warm state — the result
	// cache and the per-function summary store — to a content-addressed
	// disk store rooted there, so a restarted
	// daemon (or a sibling process sharing the directory) starts warm.
	CacheDir string
	// CacheMaxBytes caps the disk store's footprint; the least recently
	// accessed entries are evicted past it. <= 0 selects the diskstore
	// default (1 GiB). Ignored without CacheDir.
	CacheMaxBytes int64
	// MaxJobRecords bounds the finished-job history kept for GET
	// /v1/jobs/{id}; the oldest finished records are pruned first.
	MaxJobRecords int
	// MaxSessions is the hard cap on concurrently open live sessions.
	// At the cap, opening a new session first tries to evict the least
	// recently used idle session; if every session is busy the open is
	// refused with 503. <= 0 selects 256.
	MaxSessions int
	// SessionIdleTTL evicts a live session that has seen no open, edit,
	// or findings request for this long. <= 0 selects 10 minutes.
	SessionIdleTTL time.Duration
	// SessionSweep is the janitor's scan interval; <= 0 selects a
	// quarter of SessionIdleTTL clamped to [100ms, 30s].
	SessionSweep time.Duration
	// NodeID identifies this daemon in /healthz readiness reports; canaryd
	// defaults it to the listen address.
	NodeID string
	// PeerTimeout bounds each peer cache fetch; <= 0 selects the fleet
	// package's fail-fast default.
	PeerTimeout time.Duration
	// Join, when non-empty, makes the daemon a fleet worker: it gossips
	// with these seed URLs, learns the worker set from the membership
	// protocol, and keeps a peer cache ring over it — before computing a
	// missed key, the daemon asks the key's shard owner for the cached
	// bytes. The ring is rebuilt on every membership change, so there is
	// no restart when the fleet scales or heals. Requires Advertise.
	Join []string
	// Advertise is this node's base URL as other members reach it — its
	// identity in the gossip protocol and the peer ring. Required with
	// Join; canaryd defaults it to the bound listen address.
	Advertise string
	// GossipInterval, SuspectAfter, DeadAfter tune the membership agent
	// (zero values use the membership defaults).
	GossipInterval time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration
	// Options is the base analysis configuration; per-request options
	// patch it.
	Options canary.Options
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
		if n := runtime.GOMAXPROCS(0) / 4; n > c.MaxConcurrent {
			c.MaxConcurrent = n
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 4096
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionIdleTTL <= 0 {
		c.SessionIdleTTL = 10 * time.Minute
	}
	if c.SessionSweep <= 0 {
		c.SessionSweep = c.SessionIdleTTL / 4
		if c.SessionSweep < 100*time.Millisecond {
			c.SessionSweep = 100 * time.Millisecond
		}
		if c.SessionSweep > 30*time.Second {
			c.SessionSweep = 30 * time.Second
		}
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = defaultMaxRequestBytes
	}
	if c.Options.Entry == "" {
		c.Options = canary.DefaultOptions()
	}
	return c
}

// Server is the analysis service. Create with New; it is ready (workers
// running) on return.
type Server struct {
	cfg     Config
	cache   cache.ByteStore
	metrics *metrics
	// disk is the persistent store under both warm tiers when
	// Config.CacheDir is set (nil otherwise); tiers are the write-behind
	// wrappers Shutdown drains.
	disk  *diskstore.Store
	tiers []*diskstore.Tiered
	// session is the warm incremental state shared by every job: the
	// digest-keyed per-function summary store. A resubmission that misses
	// the result cache (an edited program) still reuses the summaries of
	// its unchanged functions from earlier jobs.
	session *canary.Session
	// peers is the fleet peer cache tier (nil without Config.Join): the
	// shard owner of a missed key is asked for its bytes before this
	// node computes them.
	peers *fleet.PeerClient
	// membership is the membership agent (nil without Config.Join). Its
	// change events rebuild the peer ring above.
	membership *membership.Agent

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	jobOrder []string // admission order, for bounded history pruning
	nextID   uint64
	// inflight is the single-flight table: one live job per submission
	// key. A second submission of a key already queued or running shares
	// that job instead of analyzing twice. It is the fleet's one dedup
	// layer: the router forwards every copy of a key to the key's owner.
	inflight map[cache.Key]*Job

	// The live-session registry (sessions.go): open edit-accepting
	// engines keyed by session ID, guarded by their own lock so slow
	// analyses never contend with job admission.
	sessMu   sync.Mutex
	sessions map[string]*liveSession
	sessStop chan struct{}

	queue chan *Job
	wg    sync.WaitGroup

	// jobStartHook, when non-nil, runs at the start of every job on the
	// worker goroutine. Tests use it to hold workers busy deterministically
	// (set it after New, before the first Submit).
	jobStartHook func(*Job)
}

// New builds a Server from cfg and starts its worker pool. The only
// error source is opening Config.CacheDir; a memory-only configuration
// cannot fail.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		jobs:     make(map[string]*Job),
		inflight: make(map[cache.Key]*Job),
		sessions: make(map[string]*liveSession),
		sessStop: make(chan struct{}),
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	if len(cfg.Join) > 0 {
		if cfg.Advertise == "" {
			return nil, errors.New("server: Join requires Advertise")
		}
		s.peers = fleet.NewPeerClient(cfg.Advertise, cfg.PeerTimeout)
		agent, err := membership.New(membership.Config{
			Self:         cfg.Advertise,
			Role:         api.RoleWorker,
			Seeds:        cfg.Join,
			Interval:     cfg.GossipInterval,
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
			OnChange: func(ms []membership.Member) {
				s.peers.SetPeers(membership.AliveIDs(ms, api.RoleWorker))
			},
		})
		if err != nil {
			return nil, err
		}
		s.membership = agent
		s.peers.SkipDown(func(owner string) bool { return !agent.Live(owner) })
		agent.Start()
	}
	if cfg.CacheDir != "" {
		ds, err := diskstore.Open(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk = ds
		// The result cache and the session's summary store share
		// one disk store (distinct namespaces), so one byte cap and one GC
		// govern the daemon's whole persistent footprint.
		rt := diskstore.NewTiered(cache.New(cfg.CacheEntries), ds.NS("result"), 0)
		s.cache = rt
		s.tiers = append(s.tiers, rt)
		s.session = canary.NewSessionOnDisk(ds)
	} else {
		s.cache = cache.New(cfg.CacheEntries)
		s.session = canary.NewSession()
	}
	s.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go s.worker()
	}
	go s.sessionJanitor()
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit admits one analysis of src under opt with the given deadline
// (0, or anything above Config.JobTimeout, means Config.JobTimeout).
//
// The admission path walks the cache tiers in cost order before any
// analysis is queued:
//
//  1. the content-addressed result store (memory, then disk) — a hit
//     returns an already-done job carrying the exact cold-run bytes;
//  2. the single-flight table — a submission whose key is already queued
//     or running shares that live job instead of analyzing twice;
//  3. the fleet peer tier (when configured) — the key's shard owner is
//     asked for its cached bytes, which also land in the local store;
//  4. the bounded queue — ErrQueueFull and ErrDraining reject without a
//     job record.
func (s *Server) Submit(src string, opt canary.Options, timeout time.Duration) (*Job, error) {
	if timeout <= 0 || timeout > s.cfg.JobTimeout {
		timeout = s.cfg.JobTimeout
	}
	job := &Job{
		key:      canary.SubmissionKey(src, opt),
		src:      src,
		opt:      opt,
		timeout:  timeout,
		state:    JobQueued,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}

	s.mu.Lock()
	if job, err := s.admitFastLocked(job); job != nil || err != nil {
		return job, err
	}

	// Peer cache tier, outside the lock (it is a network call): ask the
	// key's shard owner before computing locally. Every failure mode
	// degrades to computing here. Peerless nodes keep the lock and fall
	// straight through to the queue.
	if s.peers != nil {
		s.mu.Unlock()
		if v, ok := s.peers.Fetch("result", job.key); ok {
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				s.metrics.rejected.Add(1)
				return nil, ErrDraining
			}
			s.cache.Put(job.key, v)
			s.admitLocked(job)
			s.mu.Unlock()
			job.complete(v, true)
			s.metrics.accepted.Add(1)
			s.metrics.completed.Add(1)
			s.metrics.cacheServed.Add(1)
			s.metrics.peerHits.Add(1)
			return job, nil
		}
		s.mu.Lock()
		// Re-run the fast path: the store or the single-flight table may
		// have filled while the peer fetch was in flight.
		if job, err := s.admitFastLocked(job); job != nil || err != nil {
			return job, err
		}
	}
	select {
	case s.queue <- job:
		// Sent while holding mu: BeginDrain closes the queue under the same
		// lock, so a send can never race the close.
		s.admitLocked(job)
		s.inflight[job.key] = job
		s.mu.Unlock()
		s.metrics.accepted.Add(1)
		return job, nil
	default:
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// admitFastLocked tries the no-compute admission paths under s.mu: drain
// rejection, the content store, and the single-flight table. It returns
// (nil, nil) — with the lock still held — when the caller must proceed
// to the slower paths; on any other return the lock has been released.
func (s *Server) admitFastLocked(job *Job) (*Job, error) {
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		return nil, ErrDraining
	}
	if cached, ok := s.cache.Get(job.key); ok {
		s.admitLocked(job)
		s.mu.Unlock()
		job.complete(cached, true)
		s.metrics.accepted.Add(1)
		s.metrics.completed.Add(1)
		s.metrics.cacheServed.Add(1)
		return job, nil
	}
	if live, ok := s.inflight[job.key]; ok {
		s.mu.Unlock()
		s.metrics.accepted.Add(1)
		s.metrics.coalesced.Add(1)
		return live, nil
	}
	return nil, nil
}

// clearInflight removes job from the single-flight table once it reaches
// a terminal state (only if the slot is still this job's).
func (s *Server) clearInflight(job *Job) {
	s.mu.Lock()
	if s.inflight[job.key] == job {
		delete(s.inflight, job.key)
	}
	s.mu.Unlock()
}

// admitLocked assigns the job its ID and records it, pruning the oldest
// finished records beyond the history bound. Caller holds s.mu. The
// counter alone makes IDs unique, but the collision check keeps that
// true even if the counter is ever reset or the map is repopulated
// (e.g. restored history): an existing record is never replaced.
func (s *Server) admitLocked(job *Job) {
	s.nextID++
	for {
		if _, taken := s.jobs[fmt.Sprintf("job-%d", s.nextID)]; !taken {
			break
		}
		s.nextID++
	}
	job.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	for len(s.jobs) > s.cfg.MaxJobRecords {
		pruned := false
		for i, id := range s.jobOrder {
			if j, ok := s.jobs[id]; ok && j.finished() {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything live; let the map exceed the bound briefly
		}
	}
}

// Job returns the record of id, if still retained.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// QueueDepth returns the number of admitted-but-unstarted jobs.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// CacheStats returns the content store's cumulative hit/miss counters and
// current size.
func (s *Server) CacheStats() (hits, misses uint64, entries int) {
	h, m := s.cache.Stats()
	return h, m, s.cache.Len()
}

// BeginDrain flips the server into draining mode: subsequent Submits fail
// with ErrDraining, /healthz turns 503, and the queue is closed so workers
// exit once the already-admitted jobs finish. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		close(s.sessStop)
	}
}

// Shutdown drains the server: it rejects new work, then waits — bounded by
// ctx — for every admitted job to reach a terminal state. It returns
// ctx.Err() if the deadline expires first (jobs keep running; call again
// to keep waiting).
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if s.membership != nil {
		// Stop advertising; the gossip endpoint keeps answering while the
		// HTTP server lives, so peers still merge our final state.
		s.membership.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// Workers stopped and the janitor told to quit: close every live
		// session, then drain the write-behind tiers so the warm state of
		// the final jobs survives the restart.
		s.closeAllSessions()
		for _, t := range s.tiers {
			t.Close()
		}
		s.session.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.safeRun(job)
	}
}

// safeRun is the daemon's outermost panic net around one job: a panic
// escaping the whole analysis stack (the library's own recovery layers
// included) fails this job with a structured internal error, quarantines
// the program's summaries from the warm session, and leaves the worker
// alive for the next job. The job-dequeue failpoint fires here so the
// fault-injection suite can exercise exactly this path.
func (s *Server) safeRun(job *Job) {
	defer s.clearInflight(job)
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panicsRecovered.Add(1)
			s.session.Quarantine(job.src)
			s.metrics.failed.Add(1)
			job.fail(fmt.Sprintf("internal error: recovered panic: %v", r), false)
		}
	}()
	if ferr := failpoint.Inject(failpoint.SiteJobDequeue); ferr != nil {
		s.metrics.failed.Add(1)
		job.fail(ferr.Error(), false)
		return
	}
	s.runJob(job)
}

// runJob executes one analysis under the job's deadline and publishes the
// outcome to the job record, the content store, and the metrics.
func (s *Server) runJob(job *Job) {
	job.setRunning()
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)
	if s.jobStartHook != nil {
		s.jobStartHook(job)
	}

	ctx, cancel := context.WithTimeout(context.Background(), job.timeout)
	defer cancel()
	start := time.Now()
	res, err := s.analyze(ctx, job)
	wall := time.Since(start)
	if err != nil {
		s.metrics.failed.Add(1)
		job.fail(err.Error(), errors.Is(err, canary.ErrCanceled))
		return
	}
	buf, err := json.Marshal(res)
	if err != nil {
		s.metrics.failed.Add(1)
		job.fail(fmt.Sprintf("encoding result: %v", err), false)
		return
	}
	s.cache.Put(job.key, buf)
	s.metrics.trivialSolves.Add(uint64(res.Check.TrivialSolves))
	s.observeGovernance(res)
	// Every pipeline stage's latency comes off the result's trace spans —
	// the stage set is the registry's, not a hand list.
	for _, sp := range res.Trace {
		if h := s.metrics.stage[sp.Stage]; h != nil {
			h.observe(sp.Wall)
		}
	}
	s.metrics.total.observe(wall)
	s.metrics.completed.Add(1)
	job.complete(buf, false)
}

// analyze runs the pipeline for one job as a live session opened and
// discarded in one request — the same spine the /v1/sessions endpoints
// drive, including the per-stage wall split (Config.StageTimeout).
func (s *Server) analyze(ctx context.Context, job *Job) (*canary.Result, error) {
	live, _, err := s.session.OpenLive(ctx, job.src, job.opt, canary.LiveConfig{StageTimeout: s.cfg.StageTimeout})
	if err != nil {
		return nil, err
	}
	res := live.Result()
	live.Close()
	return res, nil
}

// observeGovernance folds one completed job's degradation stats into the
// daemon counters.
func (s *Server) observeGovernance(res *canary.Result) {
	if res.VFG.FixpointBudgetExhausted {
		s.metrics.budget[pipeline.BudgetFixpoint].Add(1)
	}
	s.metrics.budget[pipeline.BudgetSearch].Add(uint64(res.Check.SearchBudgetExhausted))
	s.metrics.budget[pipeline.BudgetFormula].Add(uint64(res.Check.FormulaBudgetExhausted))
	s.metrics.budget[pipeline.BudgetSolve].Add(uint64(res.Check.SolveBudgetExhausted))
	s.metrics.panicsRecovered.Add(uint64(res.Check.PanicsRecovered))
}

// writeMetrics renders the plain-text metrics exposition: job counters,
// queue gauges, the three cache layers (result store, summaries, guard
// interner), and the per-stage latency histograms.
func (s *Server) writeMetrics(w io.Writer) {
	m := s.metrics
	fmt.Fprintf(w, "canaryd_jobs_accepted_total %d\n", m.accepted.Load())
	fmt.Fprintf(w, "canaryd_jobs_completed_total %d\n", m.completed.Load())
	fmt.Fprintf(w, "canaryd_jobs_failed_total %d\n", m.failed.Load())
	fmt.Fprintf(w, "canaryd_jobs_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "canaryd_jobs_cache_served_total %d\n", m.cacheServed.Load())
	fmt.Fprintf(w, "canaryd_jobs_running %d\n", m.running.Load())
	fmt.Fprintf(w, "canaryd_queue_depth %d\n", s.QueueDepth())
	fmt.Fprintf(w, "canaryd_queue_capacity %d\n", s.cfg.QueueDepth)
	drain := 0
	if s.Draining() {
		drain = 1
	}
	fmt.Fprintf(w, "canaryd_draining %d\n", drain)

	hits, misses, entries := s.CacheStats()
	fmt.Fprintf(w, "canaryd_result_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "canaryd_result_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "canaryd_result_cache_entries %d\n", entries)
	suh, sum := s.session.SummaryStats()
	fmt.Fprintf(w, "canaryd_summary_hits_total %d\n", suh)
	fmt.Fprintf(w, "canaryd_summary_misses_total %d\n", sum)
	fmt.Fprintf(w, "canaryd_trivial_solves_total %d\n", s.metrics.trivialSolves.Load())
	for _, dim := range pipeline.BudgetDimensions() {
		fmt.Fprintf(w, "canaryd_budget_exhausted_total{stage=%q} %d\n", dim, m.budget[dim].Load())
	}
	// Worker- and checker-level recoveries live in the daemon counter;
	// session-level recoveries (and all quarantines) are counted by the
	// shared Session. The events are disjoint, so the sum is exact.
	fmt.Fprintf(w, "canaryd_panics_recovered_total %d\n", m.panicsRecovered.Load()+s.session.PanicsRecovered())
	fmt.Fprintf(w, "canaryd_quarantined_summaries_total %d\n", s.session.QuarantinedSummaries())
	gh, gm := canary.GuardInternStats()
	fmt.Fprintf(w, "canaryd_guard_intern_hits_total %d\n", gh)
	fmt.Fprintf(w, "canaryd_guard_intern_misses_total %d\n", gm)
	gi, bw, _ := canary.AllocStats()
	fmt.Fprintf(w, "canaryd_guard_interned_total %d\n", gi)
	fmt.Fprintf(w, "canaryd_pta_bitset_words %d\n", bw)
	// The persistent tier's counters (all zero without -cache-dir, so
	// scrapers can rely on the series existing either way).
	var dst diskstore.Stats
	if s.disk != nil {
		dst = s.disk.Stats()
	}
	fmt.Fprintf(w, "canaryd_disk_hits_total %d\n", dst.Hits)
	fmt.Fprintf(w, "canaryd_disk_misses_total %d\n", dst.Misses)
	fmt.Fprintf(w, "canaryd_disk_writes_total %d\n", dst.Writes)
	fmt.Fprintf(w, "canaryd_disk_corrupt_entries_total %d\n", dst.CorruptEntries)
	fmt.Fprintf(w, "canaryd_disk_gc_evictions_total %d\n", dst.GCEvictions)
	fmt.Fprintf(w, "canaryd_disk_bytes %d\n", dst.Bytes)
	fmt.Fprintf(w, "canaryd_disk_entries %d\n", dst.Entries)
	// The fleet tier: batch traffic, in-process single-flight dedup, the
	// peer cache client (this node asking shard owners) and server side
	// (shard owners asking this node). All zero outside a fleet, so
	// scrapers can rely on the series existing either way.
	fmt.Fprintf(w, "canaryd_batch_requests_total %d\n", m.batchRequests.Load())
	fmt.Fprintf(w, "canaryd_batch_items_total %d\n", m.batchItems.Load())
	fmt.Fprintf(w, "canaryd_inflight_coalesced_total %d\n", m.coalesced.Load())
	var pst fleet.PeerStats
	if s.peers != nil {
		pst = s.peers.Stats()
	}
	fmt.Fprintf(w, "canaryd_peer_fetches_total %d\n", pst.Fetches)
	fmt.Fprintf(w, "canaryd_peer_hits_total %d\n", pst.Hits)
	fmt.Fprintf(w, "canaryd_peer_misses_total %d\n", pst.Misses)
	fmt.Fprintf(w, "canaryd_peer_errors_total %d\n", pst.Errors)
	fmt.Fprintf(w, "canaryd_peer_coalesced_total %d\n", pst.Coalesced)
	fmt.Fprintf(w, "canaryd_peer_jobs_served_total %d\n", m.peerHits.Load())
	fmt.Fprintf(w, "canaryd_peer_cache_get_hits_total %d\n", m.peerServed.Load())
	fmt.Fprintf(w, "canaryd_peer_cache_get_misses_total %d\n", m.peerMissServed.Load())
	// Dynamic membership (all zero without -join, so the series exist
	// either way).
	var mst membership.Stats
	if s.membership != nil {
		mst = s.membership.Stats()
	}
	fmt.Fprintf(w, "canaryd_gossip_rounds_total %d\n", mst.Rounds)
	fmt.Fprintf(w, "canaryd_gossip_exchanges_total %d\n", mst.Sends)
	fmt.Fprintf(w, "canaryd_gossip_send_errors_total %d\n", mst.SendErrors)
	fmt.Fprintf(w, "canaryd_gossip_received_total %d\n", mst.Received)
	fmt.Fprintf(w, "canaryd_gossip_refutations_total %d\n", mst.Refutations)
	fmt.Fprintf(w, "canaryd_gossip_pingreq_total %d\n", mst.PingReqs)
	fmt.Fprintf(w, "canaryd_gossip_pingreq_acks_total %d\n", mst.PingReqAcks)
	fmt.Fprintf(w, "canaryd_membership_changes_total %d\n", mst.Changes)
	fmt.Fprintf(w, "canaryd_members_alive %d\n", mst.Alive)
	fmt.Fprintf(w, "canaryd_members_suspect %d\n", mst.Suspect)
	fmt.Fprintf(w, "canaryd_members_dead %d\n", mst.Dead)
	// The live-session tier (all zero until a client opens one, so the
	// series exist either way).
	s.sessMu.Lock()
	open := len(s.sessions)
	s.sessMu.Unlock()
	fmt.Fprintf(w, "canaryd_sessions_open %d\n", open)
	fmt.Fprintf(w, "canaryd_sessions_opened_total %d\n", m.sessionsOpened.Load())
	fmt.Fprintf(w, "canaryd_sessions_closed_total %d\n", m.sessionsClosed.Load())
	fmt.Fprintf(w, "canaryd_sessions_evicted_ttl_total %d\n", m.sessionsEvictedTTL.Load())
	fmt.Fprintf(w, "canaryd_sessions_evicted_lru_total %d\n", m.sessionsEvictedLRU.Load())
	fmt.Fprintf(w, "canaryd_session_edits_total %d\n", m.sessionEdits.Load())
	fmt.Fprintf(w, "canaryd_session_edits_rejected_total %d\n", m.sessionEditsRej.Load())
	fmt.Fprintf(w, "canaryd_session_trivial_edits_total %d\n", m.sessionTrivial.Load())
	m.editLatency.writeTo(w, "canaryd_session_edit_latency_seconds", "edit")

	for _, st := range pipeline.Stages() {
		m.stage[st.MetricsLabel()].writeTo(w, "canaryd_stage_latency_seconds", st.MetricsLabel())
	}
	m.total.writeTo(w, "canaryd_stage_latency_seconds", "total")
}
