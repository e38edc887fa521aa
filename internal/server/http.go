package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/cache"
	"canary/internal/diskstore"
)

// defaultMaxRequestBytes bounds an /v1/analyze body when the operator
// sets no Config.MaxRequestBytes (sources are small programs, not
// binaries).
const defaultMaxRequestBytes = 16 << 20

// The wire types are shared with the fleet router (internal/api); the
// aliases keep this package's public surface stable.
type (
	// AnalyzeRequest is the POST /v1/analyze body (single or batch form).
	AnalyzeRequest = api.AnalyzeRequest
	// AnalyzeItem is one submission of a batch request.
	AnalyzeItem = api.AnalyzeItem
	// OptionsPatch is a partial canary.Options overlay.
	OptionsPatch = api.OptionsPatch
	// JobResponse is the JSON rendering of a job.
	JobResponse = api.JobResponse
	// BatchResponse is the batch /v1/analyze response body.
	BatchResponse = api.BatchResponse
)

func responseOf(v jobView) JobResponse {
	resp := JobResponse{
		JobID:    v.ID,
		Status:   string(v.State),
		CacheKey: v.Key.String(),
		Cached:   v.Cached,
		Error:    v.ErrMsg,
	}
	if v.Elapsed > 0 {
		resp.Elapsed = float64(v.Elapsed.Microseconds()) / 1000
	}
	if len(v.Result) > 0 {
		resp.Result = json.RawMessage(v.Result)
	}
	return resp
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/analyze          submit one program (sync by default, async
//	                          opt-in) or a batch of up to api.MaxBatchItems
//	                          programs (always sync, per-item results)
//	GET  /v1/jobs/{id}        status/result of a submitted job
//	GET  /v1/cache/{ns}/{key} peer cache tier: the stored entry in the
//	                          diskstore wire format, or 404
//	GET  /healthz             liveness — plain text for humans, readiness
//	                          detail with ?format=json (or Accept: json)
//	GET  /metrics             plain-text counters and histograms
//
// plus the live-session surface (sessions.go):
//
//	POST   /v1/sessions               open a long-lived edit session
//	POST   /v1/sessions/{id}/edits    apply an edit batch, get the delta
//	GET    /v1/sessions/{id}/findings current findings snapshot
//	DELETE /v1/sessions/{id}          close the session
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("POST /v1/sessions/{id}/edits", s.handleSessionEdits)
	mux.HandleFunc("GET /v1/sessions/{id}/findings", s.handleSessionFindings)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/cache/{ns}/{key}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.membership != nil {
		mux.HandleFunc("/v1/gossip", s.membership.ServeGossip)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	req, err := api.ParseAnalyzeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Items) > 0 {
		s.handleBatch(w, r, req)
		return
	}

	opt := req.Options.Apply(s.cfg.Options)
	timeout := s.cfg.JobTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}

	job, err := s.Submit(req.Source, opt, timeout)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	if req.Async {
		writeJSON(w, http.StatusAccepted, responseOf(job.view()))
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client gave up; the job keeps running and stays pollable.
		writeJSON(w, http.StatusAccepted, responseOf(job.view()))
		return
	}
	v := job.view()
	status := http.StatusOK
	if v.State == JobFailed {
		status = http.StatusUnprocessableEntity
		if v.TimedOut {
			status = http.StatusGatewayTimeout
		}
	}
	writeJSON(w, status, responseOf(v))
}

// handleBatch runs every item of a batch request to a terminal state and
// answers 200 with per-item results in request order. Partial-failure
// semantics: one item's rejection, analysis error, or timeout is recorded
// in its own slot and never fails its siblings; the whole response fails
// (non-200) only when the envelope itself was unacceptable, which
// handleAnalyze already ruled out.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, req *AnalyzeRequest) {
	s.metrics.batchRequests.Add(1)
	s.metrics.batchItems.Add(uint64(len(req.Items)))

	// The envelope-level options patch applies to every item; an item's
	// own patch overlays it. The router computes routing keys with exactly
	// this layering, which is what keeps one content address per item
	// across both tiers.
	base := req.Options.Apply(s.cfg.Options)

	resp := BatchResponse{Items: make([]JobResponse, len(req.Items))}
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Items[i] = s.runBatchItem(r.Context(), base, req.Items[i])
		}(i)
	}
	wg.Wait()
	resp.Tally()
	writeJSON(w, http.StatusOK, resp)
}

// runBatchItem submits one batch item and waits it to a terminal state.
// Queue-full is absorbed by bounded in-handler retries (the queue drains
// at analysis speed; a batch is a willing bulk client, so it waits
// instead of bouncing) until the request context gives up.
func (s *Server) runBatchItem(ctx context.Context, base canary.Options, it AnalyzeItem) JobResponse {
	opt := it.Options.Apply(base)
	timeout := s.cfg.JobTimeout
	if it.TimeoutMS > 0 {
		timeout = time.Duration(it.TimeoutMS) * time.Millisecond
	}
	backoff := 2 * time.Millisecond
	var job *Job
	for {
		var err error
		job, err = s.Submit(it.Source, opt, timeout)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return JobResponse{Status: string(JobFailed), Error: err.Error()}
		}
		select {
		case <-ctx.Done():
			return JobResponse{Status: string(JobFailed), Error: ErrQueueFull.Error()}
		case <-time.After(backoff):
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		// The client gave up on the whole batch; report the live state.
	}
	return responseOf(job.view())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, responseOf(job.view()))
}

// handleCacheGet is the peer cache tier's read side: the entry under
// (namespace, key), framed in the diskstore entry wire format — the very
// bytes a disk-backed store holds, so a fleet peer can decode them with
// the decoder it already has. A miss is 404; there is no error state a
// peer could act on differently, so everything else degrades to 404 too.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	k, ok := cache.ParseKey(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusBadRequest, "malformed cache key %q", r.PathValue("key"))
		return
	}
	var raw []byte
	switch ns {
	case "result":
		// Served through the tiered store (memory first, then disk), then
		// framed — EncodeEntry of a content-addressed value is byte-identical
		// to its on-disk entry, so the wire format matches either way.
		if v, ok := s.cache.Get(k); ok {
			raw = diskstore.EncodeEntry(v)
		}
	case "summary":
		// The warm-session namespace exists only disk-backed; its entry
		// files ship verbatim.
		if s.disk != nil {
			raw, _ = s.disk.NS(ns).GetRaw(k)
		}
	default:
		writeError(w, http.StatusNotFound, "unknown cache namespace %q", ns)
		return
	}
	if raw == nil {
		s.metrics.peerMissServed.Add(1)
		writeError(w, http.StatusNotFound, "no entry for %s/%s", ns, k)
		return
	}
	s.metrics.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

// Health gathers the machine-readable readiness report: enough for
// operators to see what the node is doing.
func (s *Server) Health() api.Health {
	h := api.Health{
		Status:        "ok",
		NodeID:        s.cfg.NodeID,
		QueueDepth:    s.QueueDepth(),
		QueueCapacity: s.cfg.QueueDepth,
		Running:       int(s.metrics.running.Load()),
		CacheDir:      s.cfg.CacheDir,
		CacheDirOK:    true,
	}
	s.mu.Lock()
	if s.draining {
		h.Status = "draining"
	}
	h.InFlight = len(s.inflight)
	s.mu.Unlock()
	if s.cfg.CacheDir != "" {
		if _, err := os.Stat(s.cfg.CacheDir); err != nil {
			h.CacheDirOK = false
		}
	}
	if s.membership != nil {
		h.MembersAlive = len(s.membership.Alive(""))
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, status, h)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintln(w, h.Status)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.writeMetrics(w)
}
