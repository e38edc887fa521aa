package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/digest"
	"canary/internal/workload"
)

// SessionEditSample is one accepted edit of the sessions experiment, as
// its wire delta reported it.
type SessionEditSample struct {
	Seq int `json:"seq"`
	// Kind is "trivial" (a representation-only save), "semantic" (a
	// statement inserted into main) or "fix" (the edit that deletes the
	// free completing the subject's seeded use-after-free).
	Kind            string `json:"kind"`
	Reanalyzed      bool   `json:"reanalyzed"`
	SummaryHits     int    `json:"summary_hits"`
	FuncsReanalyzed int    `json:"funcs_reanalyzed"`
	Invalidated     int    `json:"invalidated"`
	Added           int    `json:"added"`
	Resolved        int    `json:"resolved"`
	Unchanged       int    `json:"unchanged"`
}

// SessionsResult is the edit-native protocol over a canaryd built from
// this module: one live session opened on a generated subject, a
// scripted save stream and a fix edit, the refusal paths, TTL eviction
// and the SIGTERM drain, every gate an ErrGate.
type SessionsResult struct {
	Lines int `json:"lines"`
	Edits int `json:"edits"`
	// OpenFindings is the size of the open delta (the initial findings);
	// StreamFindings the fold after the save stream, before the fix.
	OpenFindings   int                 `json:"open_findings"`
	StreamFindings int                 `json:"stream_findings"`
	Samples        []SessionEditSample `json:"samples"`
}

// sessionTTL is the daemon's idle TTL in the sessions experiment: long
// enough that no gap between two requests of the script reaches it,
// short enough that the eviction gate settles in seconds.
const sessionTTL = 2 * time.Second

// sessionCounters is what the sessions experiment expects of canaryd's
// /metrics once its one session, after edits accepted edits of which
// trivial were representation-only and one rejected span, has been
// evicted by the idle TTL.
func sessionCounters(edits, trivial uint64) map[string]uint64 {
	return map[string]uint64{
		"canaryd_sessions_opened_total":        1,
		"canaryd_sessions_open":                0,
		mEvictedTTL:                            1,
		"canaryd_session_edits_total":          edits,
		"canaryd_session_trivial_edits_total":  trivial,
		"canaryd_session_edits_rejected_total": 1,
	}
}

const mEvictedTTL = "canaryd_sessions_evicted_ttl_total"

// sessionEditAt builds edit i of the scripted save stream: two
// representation-only saves (a trailing comment) for every semantic
// change (a fresh statement inserted before main's closing brace, which
// re-keys main's digest). The 2:1 mix models an IDE autosave stream,
// where most saves land mid-comment or reformat without changing what
// the analysis can observe.
func sessionEditAt(src string, i int) (canary.Edit, bool) {
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	n := len(lines)
	if i%3 != 2 {
		return canary.Edit{Start: n + 1, End: n + 1, Text: fmt.Sprintf("// pass %d\n", i)}, true
	}
	last := 0
	for j, l := range lines {
		if strings.TrimSpace(l) == "}" {
			last = j + 1
		}
	}
	if last == 0 {
		return canary.Edit{}, false
	}
	return canary.Edit{Start: last, End: last, Text: fmt.Sprintf("  spad%d = 1;\n", i)}, false
}

// fixEditAt deletes the free of the first seeded true-positive worker
// (func tp_uaf_worker…), which completes its use-after-free.
func fixEditAt(src string) (canary.Edit, error) {
	worker := false
	for i, l := range strings.Split(src, "\n") {
		if strings.HasPrefix(l, "func tp_uaf_worker") {
			worker = true
		}
		if worker && strings.TrimSpace(l) == "free(payload);" {
			return canary.Edit{Start: i + 1, End: i + 2}, nil
		}
	}
	return canary.Edit{}, fmt.Errorf("sessions experiment: subject has no seeded true positive to fix")
}

// reportsJSON renders findings for byte comparison; no findings render
// as [] however the list was built.
func reportsJSON(rs []canary.Report) string {
	if len(rs) == 0 {
		return "[]"
	}
	b, _ := json.Marshal(rs)
	return string(b)
}

// sessionClient is the experiment's view of one session on the daemon:
// its URL, the source and fold it should hold, and the revision.
type sessionClient struct {
	url    string
	src    string
	folded []canary.Report
	seq    int
}

// edit sends one span asserted against the current revision, mirrors it
// on the client's source, folds the delta and returns it.
func (s *sessionClient) edit(ed canary.Edit) (*api.DeltaResponse, error) {
	body, _ := json.Marshal(api.EditRequest{Seq: s.seq,
		Edits: []api.WireEdit{{Start: ed.Start, End: ed.End, Text: ed.Text}}})
	status, _, buf, err := call("POST", s.url+"/edits", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, gatef("edit %+v at seq %d: status %d: %s", ed, s.seq, status, buf)
	}
	var d api.DeltaResponse
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, err
	}
	if d.Seq != s.seq+1 {
		return nil, gatef("edit at seq %d answered seq %d", s.seq, d.Seq)
	}
	if s.src, err = digest.ApplyEdits(s.src, []digest.Edit{{Start: ed.Start, End: ed.End, Text: ed.Text}}); err != nil {
		return nil, fmt.Errorf("sessions experiment: mirror apply: %w", err)
	}
	if s.folded, err = canary.FoldDelta(s.folded, &d.FindingsDelta); err != nil {
		return nil, gatef("folding delta %d: %v", d.Seq, err)
	}
	s.seq = d.Seq
	return &d, nil
}

// refused sends a raw edit body and checks it is refused with status
// and, when code is set, that error code.
func (s *sessionClient) refused(body string, status int, code string) error {
	got, _, buf, err := call("POST", s.url+"/edits", []byte(body))
	if err != nil {
		return err
	}
	if got != status || (code != "" && errCode(buf) != code) {
		return gatef("edit %s: got %d %q, want %d %q (%s)", body, got, errCode(buf), status, code, buf)
	}
	return nil
}

// findings checks GET …/findings against the client's revision and fold.
func (s *sessionClient) findings() error {
	status, _, buf, err := call("GET", s.url+"/findings", nil)
	if err != nil {
		return err
	}
	var fr api.FindingsResponse
	if status != http.StatusOK || json.Unmarshal(buf, &fr) != nil {
		return gatef("findings: status %d: %s", status, buf)
	}
	if fr.Seq != s.seq {
		return gatef("findings at seq %d, want %d", fr.Seq, s.seq)
	}
	if fold, server := reportsJSON(s.folded), reportsJSON(fr.Reports); fold != server {
		return gatef("folded deltas differ from GET findings:\nfold:   %s\nserver: %s", fold, server)
	}
	return nil
}

// errCode extracts the machine code of a typed JSON error body.
func errCode(body []byte) string {
	var e api.ErrorResponse
	_ = json.Unmarshal(body, &e)
	return e.Code
}

// RunSessions drives one live session of a canaryd built from this
// module over real HTTP. It opens the session on spec's subject, checks
// that a duplicate open is refused 409, streams edits scripted saves
// (sessionEditAt) and then a fix edit that resolves the seeded bug, and
// checks the 400 and 422 edit refusals. Then it waits out the idle TTL
// and drains the daemon. The counter gates read each wire delta: a
// representation-only save reanalyzes nothing, and a semantic save
// reanalyzes some functions but not all of them, so both the trivial-save
// fast path and cone invalidation are pinned. The fold of every delta
// must equal GET …/findings after the stream and after the fix, and a
// cold library analysis of the source at both points.
func (e *Experiments) RunSessions(spec workload.Spec, edits int) (SessionsResult, error) {
	if edits <= 0 {
		edits = 9
	}
	res := SessionsResult{Lines: spec.Lines, Edits: edits}
	orig := workload.Generate(spec)

	tmp, err := os.MkdirTemp("", "canary-sessions-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildBinaries(tmp)
	if err != nil {
		return res, err
	}
	d, err := startProc(bins.daemon, nil, "-addr", "127.0.0.1:0", "-session-idle-ttl", sessionTTL.String())
	if err != nil {
		return res, err
	}
	defer d.kill()

	const id = "bench-ide"
	open, _ := json.Marshal(api.OpenSessionRequest{SessionID: id, Source: orig})
	status, _, buf, err := call("POST", d.url+"/v1/sessions", open)
	if err != nil {
		return res, err
	}
	var od api.DeltaResponse
	if status != http.StatusCreated || json.Unmarshal(buf, &od) != nil {
		return res, gatef("open: status %d: %s", status, buf)
	}
	if od.SessionID != id || od.Seq != 0 || !od.Reanalyzed || len(od.Added) == 0 {
		return res, gatef("open delta: want %s at seq 0, reanalyzed, with findings: %s", id, buf)
	}
	res.OpenFindings = len(od.Added)
	s := &sessionClient{url: d.url + "/v1/sessions/" + id, src: orig}
	if s.folded, err = canary.FoldDelta(nil, &od.FindingsDelta); err != nil {
		return res, gatef("folding the open delta: %v", err)
	}

	status, _, buf, err = call("POST", d.url+"/v1/sessions", open)
	if err != nil {
		return res, err
	}
	if status != http.StatusConflict || errCode(buf) != api.CodeDuplicateSession {
		return res, gatef("duplicate open: got %d %q, want 409 %q", status, errCode(buf), api.CodeDuplicateSession)
	}

	record := func(kind string, dr *api.DeltaResponse, unchangedWant int) error {
		sm := SessionEditSample{Seq: dr.Seq, Kind: kind, Reanalyzed: dr.Reanalyzed,
			SummaryHits: dr.SummaryHits, FuncsReanalyzed: dr.FuncsReanalyzed,
			Invalidated: len(dr.Invalidated), Added: len(dr.Added),
			Resolved: len(dr.Resolved), Unchanged: dr.Unchanged}
		res.Samples = append(res.Samples, sm)
		e.logf("  sessions seq %d (%s): reanalyzed=%v funcs %d of %d, invalidated=%d\n",
			sm.Seq, kind, sm.Reanalyzed, sm.FuncsReanalyzed, sm.SummaryHits+sm.FuncsReanalyzed, sm.Invalidated)
		if kind == "trivial" {
			if sm.Reanalyzed || sm.FuncsReanalyzed != 0 || sm.Unchanged != unchangedWant {
				return gatef("representation-only save %d: reanalyzed=%v funcs_reanalyzed=%d unchanged=%d, want false, 0, %d",
					sm.Seq, sm.Reanalyzed, sm.FuncsReanalyzed, sm.Unchanged, unchangedWant)
			}
			return nil
		}
		if !sm.Reanalyzed || sm.Invalidated == 0 || sm.FuncsReanalyzed <= 0 || sm.SummaryHits <= 0 {
			return gatef("semantic save %d: reanalyzed=%v invalidated=%d funcs_reanalyzed=%d summary_hits=%d, want a re-run of a cone that is neither empty nor the whole program",
				sm.Seq, sm.Reanalyzed, sm.Invalidated, sm.FuncsReanalyzed, sm.SummaryHits)
		}
		return nil
	}
	trivial := 0
	for i := 0; i < edits; i++ {
		ed, representational := sessionEditAt(s.src, i)
		if ed.Start == 0 {
			return res, fmt.Errorf("sessions experiment: no closing brace in subject")
		}
		before := len(s.folded)
		dr, err := s.edit(ed)
		if err != nil {
			return res, err
		}
		kind := "semantic"
		if representational {
			kind = "trivial"
			trivial++
		}
		if err := record(kind, dr, before); err != nil {
			return res, err
		}
	}
	if err := s.findings(); err != nil {
		return res, err
	}
	streamSrc, streamFold := s.src, s.folded
	res.StreamFindings = len(streamFold)

	fix, err := fixEditAt(s.src)
	if err != nil {
		return res, err
	}
	dr, err := s.edit(fix)
	if err != nil {
		return res, err
	}
	if err := record("fix", dr, 0); err != nil {
		return res, err
	}
	if len(dr.Resolved) == 0 {
		return res, gatef("the fix edit resolved no finding")
	}

	// A zero start line is refused at the wire (400), a span beyond the
	// end of the source by the engine (422); neither moves the revision,
	// which findings() checks.
	if err := s.refused(`{"edits":[{"start":0,"end":0,"text":"x"}]}`, http.StatusBadRequest, ""); err != nil {
		return res, err
	}
	beyond := strings.Count(s.src, "\n") + 10
	if err := s.refused(fmt.Sprintf(`{"edits":[{"start":%d,"end":%d,"text":"x = 1;\n"}]}`, beyond, beyond),
		http.StatusUnprocessableEntity, api.CodeEditRejected); err != nil {
		return res, err
	}
	if err := s.findings(); err != nil {
		return res, err
	}

	// Idle eviction, watched on /metrics: a GET on the session would
	// count as use and restart its idle clock.
	for deadline := time.Now().Add(15 * sessionTTL); ; time.Sleep(100 * time.Millisecond) {
		c, err := scrapeCounters(d.url, mEvictedTTL)
		if err != nil {
			return res, gatef("%v", err)
		}
		if c[mEvictedTTL] > 0 {
			break
		}
		if time.Now().After(deadline) {
			return res, gatef("session not evicted %v after its %v idle TTL", 15*sessionTTL, sessionTTL)
		}
	}
	status, _, buf, err = call("GET", s.url+"/findings", nil)
	if err != nil {
		return res, err
	}
	if status != http.StatusNotFound || errCode(buf) != api.CodeUnknownSession {
		return res, gatef("evicted session: got %d %q, want 404 %q", status, errCode(buf), api.CodeUnknownSession)
	}
	if err := expectCounters(d.url, sessionCounters(uint64(len(res.Samples)), uint64(trivial))); err != nil {
		return res, err
	}
	if err := d.terminate(30 * time.Second); err != nil {
		return res, gatef("daemon shutdown: %v", err)
	}

	// The folds against a cold library analysis of the same source.
	for _, pt := range []struct {
		name string
		src  string
		fold []canary.Report
	}{{"stream", streamSrc, streamFold}, {"fix", s.src, s.folded}} {
		cold, err := canary.Analyze(pt.src, canary.DefaultOptions())
		if err != nil {
			return res, err
		}
		if fold, want := reportsJSON(pt.fold), reportsJSON(cold.Reports); fold != want {
			return res, gatef("fold after the %s differs from a cold analysis:\nfold: %s\ncold: %s", pt.name, fold, want)
		}
	}
	return res, nil
}
