package server

// The live-session surface: long-lived edit-accepting analysis engines
// behind /v1/sessions. A session is one canary.LiveSession plus the
// daemon-side policy around it — identity, per-session options and
// budgets, idle TTL, and the LRU-under-cap eviction that keeps
// thousands of multi-tenant sessions safe on one node.
//
//	POST   /v1/sessions               open (analyze the initial source)
//	POST   /v1/sessions/{id}/edits    apply an edit batch, get the delta
//	GET    /v1/sessions/{id}/findings current findings snapshot
//	DELETE /v1/sessions/{id}          close and release
//
// Locking: the registry map and lastUsed stamps live under sessMu
// (never held across an analysis); each session's edits serialize on
// its own mutex, which the janitor and the LRU evictor only TryLock —
// a busy session is by definition not idle, so it is never evicted
// mid-edit.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"canary"
	"canary/internal/api"
)

// liveSession is one registry entry: the engine plus its policy state.
type liveSession struct {
	id  string
	ttl time.Duration

	// mu serializes edit batches (and close) on this session. The
	// engine has its own lock, but the handler needs the seq check and
	// the apply to be one atomic step, and the evictors need a cheap
	// "is it busy" probe — TryLock on this.
	mu   sync.Mutex
	live *canary.LiveSession

	// opening marks a reserved ID whose initial analysis is still
	// running; such an entry is visible (so duplicate opens get their
	// 409) but not usable or evictable. Guarded by sessMu.
	opening bool
	// lastUsed is the idle clock, guarded by sessMu.
	lastUsed time.Time
}

// sessionJanitor periodically evicts idle-past-TTL sessions until
// BeginDrain stops it.
func (s *Server) sessionJanitor() {
	t := time.NewTicker(s.cfg.SessionSweep)
	defer t.Stop()
	for {
		select {
		case <-s.sessStop:
			return
		case <-t.C:
			s.evictIdleSessions(time.Now())
		}
	}
}

// evictIdleSessions closes every session idle past its TTL. Busy
// sessions (edit in flight) are skipped — they will be stamped fresh
// when the edit finishes anyway.
func (s *Server) evictIdleSessions(now time.Time) {
	var victims []*liveSession
	s.sessMu.Lock()
	for _, ls := range s.sessions {
		if ls.opening || now.Sub(ls.lastUsed) <= ls.ttl {
			continue
		}
		if !ls.mu.TryLock() {
			continue
		}
		delete(s.sessions, ls.id)
		victims = append(victims, ls)
	}
	s.sessMu.Unlock()
	for _, ls := range victims {
		ls.live.Close()
		ls.mu.Unlock()
		s.metrics.sessionsEvictedTTL.Add(1)
		s.metrics.sessionsClosed.Add(1)
	}
}

// evictLRULocked makes room for one more session by closing the least
// recently used idle one. Caller holds sessMu. Returns false when every
// session is busy or opening (the open must then be refused).
func (s *Server) evictLRULocked() bool {
	var oldest *liveSession
	for _, ls := range s.sessions {
		if ls.opening || !ls.mu.TryLock() {
			continue
		}
		if oldest == nil || ls.lastUsed.Before(oldest.lastUsed) {
			if oldest != nil {
				oldest.mu.Unlock()
			}
			oldest = ls
		} else {
			ls.mu.Unlock()
		}
	}
	if oldest == nil {
		return false
	}
	delete(s.sessions, oldest.id)
	oldest.live.Close()
	oldest.mu.Unlock()
	s.metrics.sessionsEvictedLRU.Add(1)
	s.metrics.sessionsClosed.Add(1)
	return true
}

// closeAllSessions releases every live session at shutdown.
func (s *Server) closeAllSessions() {
	s.sessMu.Lock()
	all := make([]*liveSession, 0, len(s.sessions))
	for _, ls := range s.sessions {
		delete(s.sessions, ls.id)
		all = append(all, ls)
	}
	s.sessMu.Unlock()
	for _, ls := range all {
		ls.mu.Lock()
		if ls.live != nil {
			ls.live.Close()
		}
		ls.mu.Unlock()
		s.metrics.sessionsClosed.Add(1)
	}
}

// newSessionID mints a server-chosen session ID, collision-checked
// against the registry. Caller holds sessMu.
func (s *Server) newSessionIDLocked() (string, error) {
	for attempt := 0; attempt < 100; attempt++ {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("minting session id: %v", err)
		}
		id := "s-" + hex.EncodeToString(b[:])
		if _, taken := s.sessions[id]; !taken {
			return id, nil
		}
	}
	return "", errors.New("minting session id: exhausted attempts")
}

// writeErrorCode is writeError with a stable machine-readable code.
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	api.WriteJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// handleSessionOpen serves POST /v1/sessions: reserve the ID, run the
// initial full analysis, answer 201 with the opening delta (every
// finding Added). Duplicate IDs get 409 instead of a silent replace; at
// the session cap the least recently used idle session is evicted, and
// if none is evictable the open is refused with 503.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, s.cfg.MaxRequestBytes)
	if !ok {
		return
	}
	req, err := api.ParseOpenSessionRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ttl := s.cfg.SessionIdleTTL
	if req.TTLSeconds > 0 {
		if d := time.Duration(req.TTLSeconds) * time.Second; d < ttl {
			ttl = d
		}
	}

	// Reserve the ID under the registry lock. The placeholder makes a
	// concurrent duplicate open fail fast with 409 while this one's
	// initial analysis is still running — exactly one open of an ID can
	// ever succeed.
	ls := &liveSession{ttl: ttl, opening: true, lastUsed: time.Now()}
	s.sessMu.Lock()
	if s.Draining() {
		s.sessMu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	if req.SessionID != "" {
		if _, taken := s.sessions[req.SessionID]; taken {
			s.sessMu.Unlock()
			writeErrorCode(w, http.StatusConflict, api.CodeDuplicateSession,
				"session %q is already open", req.SessionID)
			return
		}
		ls.id = req.SessionID
	} else {
		id, err := s.newSessionIDLocked()
		if err != nil {
			s.sessMu.Unlock()
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		ls.id = id
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictLRULocked() {
		s.sessMu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, api.CodeSessionCap,
			"session cap %d reached and every session is busy", s.cfg.MaxSessions)
		return
	}
	s.sessions[ls.id] = ls
	s.sessMu.Unlock()

	opt := req.Options.Apply(s.cfg.Options)
	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	start := time.Now()
	live, delta, err := s.session.OpenLive(ctx, req.Source, opt, canary.LiveConfig{StageTimeout: s.cfg.StageTimeout})
	elapsed := time.Since(start)
	if err != nil {
		s.sessMu.Lock()
		if s.sessions[ls.id] == ls {
			delete(s.sessions, ls.id)
		}
		s.sessMu.Unlock()
		status := http.StatusUnprocessableEntity
		if errors.Is(err, canary.ErrCanceled) {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, "%v", err)
		return
	}
	ls.live = live
	s.sessMu.Lock()
	ls.opening = false
	ls.lastUsed = time.Now()
	s.sessMu.Unlock()
	s.metrics.sessionsOpened.Add(1)

	res := live.Result()
	api.WriteJSON(w, http.StatusCreated, api.DeltaResponse{
		SessionID:       ls.id,
		FindingsDelta:   *delta,
		SummaryHits:     res.VFG.SummaryHits,
		FuncsReanalyzed: res.VFG.FuncsReanalyzed,
		ElapsedMS:       float64(elapsed.Microseconds()) / 1000,
	})
}

// sessionCtx bounds one session request like a job: the client's
// context capped by JobTimeout.
func (s *Server) sessionCtx(r *http.Request) (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.JobTimeout)
}

// lookupSession fetches a usable session and stamps its idle clock.
func (s *Server) lookupSession(w http.ResponseWriter, id string) (*liveSession, bool) {
	s.sessMu.Lock()
	ls, ok := s.sessions[id]
	if ok && ls.opening {
		s.sessMu.Unlock()
		writeErrorCode(w, http.StatusConflict, api.CodeSessionOpening,
			"session %q is still opening", id)
		return nil, false
	}
	if ok {
		ls.lastUsed = time.Now()
	}
	s.sessMu.Unlock()
	if !ok {
		writeErrorCode(w, http.StatusNotFound, api.CodeUnknownSession,
			"unknown session %q", id)
		return nil, false
	}
	return ls, true
}

// handleSessionEdits serves POST /v1/sessions/{id}/edits: apply one
// atomic edit batch and answer with its findings delta. A rejected
// batch (bad spans, unparsable patch, seq conflict) changes nothing.
func (s *Server) handleSessionEdits(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, s.cfg.MaxRequestBytes)
	if !ok {
		return
	}
	req, err := api.ParseEditRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ls, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	edits := make([]canary.Edit, len(req.Edits))
	for i, e := range req.Edits {
		edits[i] = canary.Edit{Start: e.Start, End: e.End, Text: e.Text}
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	if req.Seq != 0 && req.Seq != ls.live.Seq() {
		writeErrorCode(w, http.StatusConflict, api.CodeSeqConflict,
			"edits target seq %d but the session is at seq %d", req.Seq, ls.live.Seq())
		return
	}
	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	start := time.Now()
	delta, err := ls.live.ApplyEdits(ctx, edits)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, canary.ErrEditRejected):
			s.metrics.sessionEditsRej.Add(1)
			writeErrorCode(w, http.StatusUnprocessableEntity, api.CodeEditRejected, "%v", err)
		case errors.Is(err, canary.ErrSessionClosed):
			// Evicted between lookup and lock.
			writeErrorCode(w, http.StatusNotFound, api.CodeUnknownSession,
				"unknown session %q", ls.id)
		case errors.Is(err, canary.ErrCanceled):
			writeError(w, http.StatusGatewayTimeout, "%v", err)
		default:
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	s.metrics.sessionEdits.Add(1)
	s.metrics.editLatency.observe(elapsed)
	resp := api.DeltaResponse{
		SessionID:     ls.id,
		FindingsDelta: *delta,
		ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
	}
	if delta.Reanalyzed {
		res := ls.live.Result()
		resp.SummaryHits = res.VFG.SummaryHits
		resp.FuncsReanalyzed = res.VFG.FuncsReanalyzed
	} else {
		s.metrics.sessionTrivial.Add(1)
	}
	s.sessMu.Lock()
	ls.lastUsed = time.Now()
	s.sessMu.Unlock()
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleSessionFindings serves GET /v1/sessions/{id}/findings: the full
// current findings, for clients that lost a delta or just attached.
func (s *Server) handleSessionFindings(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	ls.mu.Lock()
	seq, reports := ls.live.Seq(), ls.live.Reports()
	ls.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, api.FindingsResponse{SessionID: ls.id, Seq: seq, Reports: reports})
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: close and
// release. In-flight edits finish first (they hold the session mutex).
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sessMu.Lock()
	ls, ok := s.sessions[id]
	if ok && ls.opening {
		s.sessMu.Unlock()
		writeErrorCode(w, http.StatusConflict, api.CodeSessionOpening,
			"session %q is still opening", id)
		return
	}
	if ok {
		delete(s.sessions, id)
	}
	s.sessMu.Unlock()
	if !ok {
		writeErrorCode(w, http.StatusNotFound, api.CodeUnknownSession,
			"unknown session %q", id)
		return
	}
	ls.mu.Lock()
	ls.live.Close()
	ls.mu.Unlock()
	s.metrics.sessionsClosed.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// OpenSessions returns the number of currently open live sessions.
func (s *Server) OpenSessions() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}
