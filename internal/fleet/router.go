package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/cache"
	"canary/internal/membership"
)

// WorkerState is the router's view of one canaryd node, read from its
// membership table: alive is up; suspect, or alive but quiet, is down.
// A down node stays in the ring (only a dead one leaves it) but is
// demoted to the end of the failover walk.
type WorkerState int32

const (
	// WorkerUp is alive in the membership table.
	WorkerUp WorkerState = iota
	// WorkerDown is suspect, or alive but quiet, in the membership table.
	WorkerDown
)

func (s WorkerState) String() string {
	if s == WorkerUp {
		return "up"
	}
	return "down"
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Join is the membership seed list (canaryd base URLs), required: the
	// router gossips with these seeds, learns the worker set from the
	// membership protocol, and rebuilds its ring on every change — no
	// restart needed when workers die, rejoin, or scale.
	Join []string
	// Self is the router's advertised base URL, required (it is the
	// router's identity in the gossip protocol).
	Self string
	// GossipInterval, SuspectAfter, DeadAfter tune the membership agent
	// (zero values use the membership defaults).
	GossipInterval time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration
	// BaseOptions is the analysis option set the router assumes the
	// workers run with; submission options patch it exactly like the
	// daemon patches its own base, so the router computes the same
	// SubmissionKey the worker caches under. A mismatch costs cache
	// locality, never correctness. Zero value means canary defaults.
	BaseOptions *canary.Options
	// MaxRequestBytes bounds an accepted request body (0 = 16 MiB), the
	// same governance knob canaryd has.
	MaxRequestBytes int64
	// MaxAttempts bounds how many workers one submission may be offered
	// to before the router gives up (0 = 3).
	MaxAttempts int
	// RetryBackoff is the base delay between failover attempts, jittered
	// ±50% (0 = 25ms).
	RetryBackoff time.Duration
	// Timeout bounds one upstream call (0 = 5 minutes; analyses can be
	// slow, and the worker's own job timeout is the real governor).
	Timeout time.Duration
	// Seed seeds the router's private jitter source (0 = 1). Chaos and
	// smoke runs pin it so backoff schedules are reproducible; a private
	// source also keeps failovers off the global rand lock.
	Seed int64
}

// Router is the stateless fleet front door: it consistent-hashes every
// submission's SubmissionKey across the workers its membership agent
// knows, forwards to the owner, and fails over down the ring on worker
// errors. Identical concurrent submissions all reach their owner, whose
// in-flight table runs them as one analysis. The router holds no
// durable state — restarting one loses nothing.
type Router struct {
	cfg   RouterConfig
	base  canary.Options
	ring  atomic.Pointer[Ring]
	hc    *http.Client
	agent *membership.Agent

	// rng drives backoff jitter; private and seeded for reproducibility.
	rngMu sync.Mutex
	rng   *rand.Rand

	// The router_* counters.
	requests      atomic.Uint64 // single-form submissions accepted for routing
	batchRequests atomic.Uint64 // batch envelopes
	items         atomic.Uint64 // items routed (1 per single, N per batch)
	forwards      atomic.Uint64 // upstream POSTs actually sent
	failovers     atomic.Uint64 // attempts beyond the first for one item
	upstreamErrs  atomic.Uint64 // upstream calls that failed (transport or 5xx)
	exhausted     atomic.Uint64 // items that ran out of failover candidates
}

// NewRouter builds a router and starts its membership agent. Close
// stops it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Join) == 0 {
		return nil, errors.New("fleet: router needs a join seed list")
	}
	if cfg.Self == "" {
		return nil, errors.New("fleet: router needs Self (its advertised URL)")
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 16 << 20
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	base := canary.DefaultOptions()
	if cfg.BaseOptions != nil {
		base = *cfg.BaseOptions
	}
	rt := &Router{
		cfg:  cfg,
		base: base,
		hc:   &http.Client{Timeout: cfg.Timeout},
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	rt.ring.Store(NewRing(nil))
	agent, err := membership.New(membership.Config{
		Self:         cfg.Self,
		Role:         api.RoleRouter,
		Seeds:        cfg.Join,
		Interval:     cfg.GossipInterval,
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		OnChange: func(ms []membership.Member) {
			rt.SetWorkers(membership.AliveIDs(ms, api.RoleWorker))
		},
	})
	if err != nil {
		return nil, err
	}
	rt.agent = agent
	agent.Start()
	return rt, nil
}

// Close stops the membership agent. In-flight requests finish normally.
func (rt *Router) Close() { rt.agent.Close() }

// Ring returns the router's current membership view.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// SetWorkers atomically replaces the worker set with a new rendezvous
// ring. Membership events land here.
func (rt *Router) SetWorkers(workers []string) { rt.ring.Store(NewRing(workers)) }

// WorkerStates returns a point-in-time snapshot of every ring member's
// state, keyed by worker URL.
func (rt *Router) WorkerStates() map[string]WorkerState {
	return rt.statesOf(rt.Ring().Nodes())
}

// statesOf reads each worker's state from the membership table: alive
// is up; quiet — a gossip question left unanswered, its confirmation
// pending — suspect, and dead until the ring drops it, are down.
func (rt *Router) statesOf(workers []string) map[string]WorkerState {
	out := make(map[string]WorkerState, len(workers))
	for _, w := range workers {
		out[w] = WorkerDown
		if rt.agent.Live(w) {
			out[w] = WorkerUp
		}
	}
	return out
}

// --- routing core ---

// routeKey computes the content address a worker will cache this item
// under: the same options overlay the daemon applies, then SubmissionKey.
func (rt *Router) routeKey(src string, patch *api.OptionsPatch, itemPatch *api.OptionsPatch) cache.Key {
	opt := patch.Apply(rt.base)
	opt = itemPatch.Apply(opt)
	return canary.SubmissionKey(src, opt)
}

// candidates returns the failover order for key: ready workers in ring
// order, then down ones (not dropped: when everything looks down,
// trying anyway beats refusing — the liveness signal may simply be
// stale).
func (rt *Router) candidates(key cache.Key) []string {
	reps := rt.Ring().Replicas(key)
	states := rt.statesOf(reps)
	ready := make([]string, 0, len(reps))
	var down []string
	for _, w := range reps {
		if states[w] == WorkerDown {
			down = append(down, w)
		} else {
			ready = append(ready, w)
		}
	}
	return append(ready, down...)
}

var errNoWorkers = errors.New("fleet: no worker answered")

// backoff sleeps one jittered failover delay (base ± 50%), so a burst
// of failovers does not re-slam the next worker in lockstep.
func (rt *Router) backoff(ctx context.Context) error {
	rt.rngMu.Lock()
	jitter := time.Duration(rt.rng.Int63n(int64(rt.cfg.RetryBackoff)))
	rt.rngMu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(rt.cfg.RetryBackoff/2 + jitter):
		return nil
	}
}

// forward offers one single-form submission body to key's candidate
// workers in turn: the owner first, then down the ring with jittered
// backoff between attempts. A worker's HTTP answer — any status — ends
// the walk except 503 (queue full / draining, backpressure not
// breakage) and other 5xx, which move on, as does a transport error.
func (rt *Router) forward(ctx context.Context, key cache.Key, body []byte) (int, []byte, error) {
	cands := rt.candidates(key)
	if len(cands) > rt.cfg.MaxAttempts {
		cands = cands[:rt.cfg.MaxAttempts]
	}
	lastErr := errNoWorkers
	for i, w := range cands {
		if i > 0 {
			rt.failovers.Add(1)
			if err := rt.backoff(ctx); err != nil {
				return 0, nil, err
			}
		}
		code, respBody, err := rt.post(ctx, w, body)
		if err == nil && code < 500 {
			return code, respBody, nil
		}
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		rt.upstreamErrs.Add(1)
		if err != nil {
			lastErr = fmt.Errorf("worker %s: %w", w, err)
		} else {
			lastErr = fmt.Errorf("worker %s: status %d", w, code)
		}
	}
	rt.exhausted.Add(1)
	return 0, nil, lastErr
}

// post sends one upstream call. The call is abandoned when worker turns
// down in the membership table while it is in flight: a frozen process
// keeps the connection open and answers nothing, so without the
// liveness signal the call would wait out the upstream timeout.
func (rt *Router) post(ctx context.Context, worker string, body []byte) (int, []byte, error) {
	ctx, cancel := rt.untilDown(ctx, worker)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		worker+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rt.forwards.Add(1)
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerEntryBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// --- HTTP surface ---

// Handler returns the router's HTTP API — the same /v1/analyze contract
// canaryd serves (single and batch forms), plus the router's own
// /healthz and /metrics, and the membership gossip endpoint. Async submissions are refused: a job ID is meaningful only
// on the worker that issued it, and a stateless router keeps no
// affinity to resolve one.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", rt.handleAnalyze)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("/v1/gossip", rt.agent.ServeGossip)
	return mux
}

func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, rt.cfg.MaxRequestBytes)
	if !ok {
		return
	}
	req, err := api.ParseAnalyzeRequest(body)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Async {
		writeJSONError(w, http.StatusBadRequest,
			"async submissions are not routable; submit directly to a worker")
		return
	}
	if rt.Ring().Len() == 0 {
		// No workers known (yet): refuse with a backoff hint rather than
		// hanging or panicking.
		writeJSONError(w, http.StatusServiceUnavailable, "no fleet members known")
		return
	}
	if len(req.Items) > 0 {
		rt.handleBatch(w, r, req)
		return
	}

	rt.requests.Add(1)
	rt.items.Add(1)
	key := rt.routeKey(req.Source, req.Options, nil)
	code, respBody, err := rt.forward(r.Context(), key, body)
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(respBody)
}

// handleBatch fans a batch out to the owners of its items: items are
// grouped by owner, one upstream batch POST per worker, per-item
// responses reassembled in request order. A worker whose whole call
// fails gets its items re-routed individually through the failover walk,
// so one down worker degrades to slower placement, not lost items. That
// includes an owner that turns down while its call is in flight (see
// post), so the batch waits for the liveness signal rather than the
// upstream timeout.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request, req *api.AnalyzeRequest) {
	rt.batchRequests.Add(1)
	rt.items.Add(uint64(len(req.Items)))

	type routedItem struct {
		idx int
		key cache.Key
	}
	groups := make(map[string][]routedItem)
	for i := range req.Items {
		it := &req.Items[i]
		key := rt.routeKey(it.Source, req.Options, it.Options)
		owner := ""
		if cands := rt.candidates(key); len(cands) > 0 {
			owner = cands[0]
		}
		groups[owner] = append(groups[owner], routedItem{idx: i, key: key})
	}

	resp := api.BatchResponse{Items: make([]api.JobResponse, len(req.Items))}
	var wg sync.WaitGroup
	for owner, group := range groups {
		wg.Add(1)
		go func(owner string, group []routedItem) {
			defer wg.Done()
			sub := api.AnalyzeRequest{
				Options: req.Options,
				Items:   make([]api.AnalyzeItem, len(group)),
			}
			for j, g := range group {
				sub.Items[j] = req.Items[g.idx]
			}
			subBody, err := json.Marshal(sub)
			if err == nil && owner != "" {
				code, respBody, postErr := rt.post(r.Context(), owner, subBody)
				if postErr == nil && code == http.StatusOK {
					var br api.BatchResponse
					if json.Unmarshal(respBody, &br) == nil && len(br.Items) == len(group) {
						for j, g := range group {
							resp.Items[g.idx] = br.Items[j]
						}
						return
					}
				}
				if postErr != nil || code >= 500 {
					rt.upstreamErrs.Add(1)
				}
			}
			// The grouped call failed as a whole (or no owner was known):
			// re-route each item alone so the failover walk can place it.
			for j, g := range group {
				resp.Items[g.idx] = rt.routeSingle(r.Context(), g.key, sub.Items[j], req.Options)
			}
		}(owner, group)
	}
	wg.Wait()
	resp.Tally()
	api.WriteJSON(w, http.StatusOK, resp)
}

// untilDown returns a context that is cancelled with ctx or as soon as
// worker turns down. A worker already down when the call starts (every
// candidate was down) is called anyway, as the failover walk would.
func (rt *Router) untilDown(ctx context.Context, worker string) (context.Context, context.CancelFunc) {
	if !rt.agent.Live(worker) {
		return context.WithCancel(ctx)
	}
	return cancelWhen(ctx, func() bool { return !rt.agent.Live(worker) })
}

// downPoll is how often a call that waits on a peer re-reads the peer's
// state from the liveness signal.
const downPoll = 25 * time.Millisecond

// cancelWhen returns a context that is cancelled with ctx or once cond
// holds, polled every downPoll.
func cancelWhen(ctx context.Context, cond func() bool) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		t := time.NewTicker(downPoll)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if cond() {
					cancel()
					return
				}
			}
		}
	}()
	return ctx, cancel
}

// routeSingle re-routes one batch item through the failover walk as a
// batch of one — the batch form keeps the envelope/item options
// layering intact, so the worker lands it under the same content address
// the router computed.
func (rt *Router) routeSingle(ctx context.Context, key cache.Key, it api.AnalyzeItem, patch *api.OptionsPatch) api.JobResponse {
	body, err := json.Marshal(api.AnalyzeRequest{
		Options: patch,
		Items:   []api.AnalyzeItem{it},
	})
	if err != nil {
		return api.JobResponse{Status: "failed", Error: err.Error()}
	}
	code, respBody, err := rt.forward(ctx, key, body)
	if err != nil {
		return api.JobResponse{Status: "failed", Error: err.Error()}
	}
	var br api.BatchResponse
	if err := json.Unmarshal(respBody, &br); err != nil || len(br.Items) != 1 {
		return api.JobResponse{Status: "failed",
			Error: fmt.Sprintf("unparseable worker response (status %d)", code)}
	}
	return br.Items[0]
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers := rt.Ring().Nodes()
	states := rt.statesOf(workers)
	up := 0
	for _, s := range states {
		if s == WorkerUp {
			up++
		}
	}
	status := "ok"
	code := http.StatusOK
	if up == 0 {
		status = "no-workers"
		code = http.StatusServiceUnavailable
	}
	if r.URL.Query().Get("format") == "json" {
		type workerReport struct {
			URL   string `json:"url"`
			State string `json:"state"`
		}
		report := struct {
			Status  string         `json:"status"`
			Members int            `json:"members,omitempty"`
			Workers []workerReport `json:"workers"`
		}{Status: status, Members: len(membership.AliveIDs(rt.agent.Members(), ""))}
		for _, u := range workers {
			report.Workers = append(report.Workers, workerReport{URL: u, State: states[u].String()})
		}
		api.WriteJSON(w, code, report)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "router_requests_total %d\n", rt.requests.Load())
	fmt.Fprintf(w, "router_batch_requests_total %d\n", rt.batchRequests.Load())
	fmt.Fprintf(w, "router_items_total %d\n", rt.items.Load())
	fmt.Fprintf(w, "router_forwards_total %d\n", rt.forwards.Load())
	fmt.Fprintf(w, "router_failovers_total %d\n", rt.failovers.Load())
	fmt.Fprintf(w, "router_upstream_errors_total %d\n", rt.upstreamErrs.Load())
	fmt.Fprintf(w, "router_exhausted_total %d\n", rt.exhausted.Load())
	fmt.Fprintf(w, "router_workers %d\n", rt.Ring().Len())
	workers := rt.Ring().Nodes()
	sort.Strings(workers)
	states := rt.statesOf(workers)
	up := 0
	for _, u := range workers {
		upVal := 0
		if states[u] == WorkerUp {
			upVal = 1
			up++
		}
		fmt.Fprintf(w, "router_worker_up{worker=%q} %d\n", u, upVal)
	}
	fmt.Fprintf(w, "router_workers_up %d\n", up)
	fmt.Fprintf(w, "router_workers_down %d\n", len(workers)-up)
	ms := rt.agent.Stats()
	fmt.Fprintf(w, "router_gossip_rounds_total %d\n", ms.Rounds)
	fmt.Fprintf(w, "router_gossip_send_errors_total %d\n", ms.SendErrors)
	fmt.Fprintf(w, "router_members_alive %d\n", ms.Alive)
	fmt.Fprintf(w, "router_members_suspect %d\n", ms.Suspect)
	fmt.Fprintf(w, "router_members_dead %d\n", ms.Dead)
}

// RouterStats is a point-in-time snapshot of the router counters, for
// the bench harness.
type RouterStats struct {
	Requests      uint64 `json:"requests"`
	BatchRequests uint64 `json:"batch_requests"`
	Items         uint64 `json:"items"`
	Forwards      uint64 `json:"forwards"`
	Failovers     uint64 `json:"failovers"`
	UpstreamErrs  uint64 `json:"upstream_errors"`
	Exhausted     uint64 `json:"exhausted"`
}

// Stats returns the cumulative counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Requests:      rt.requests.Load(),
		BatchRequests: rt.batchRequests.Load(),
		Items:         rt.items.Load(),
		Forwards:      rt.forwards.Load(),
		Failovers:     rt.failovers.Load(),
		UpstreamErrs:  rt.upstreamErrs.Load(),
		Exhausted:     rt.exhausted.Load(),
	}
}

// writeJSONError emits the router's typed JSON error envelope. 502/503
// responses carry a Retry-After hint, mirroring canaryd's queue-full
// path, so clients back off instead of hammering a struggling fleet.
func writeJSONError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	if status == http.StatusBadGateway || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	api.WriteJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
