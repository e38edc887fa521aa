package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"canary"
	"canary/internal/api"
)

func drainServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func postBatch(t *testing.T, url string, req AnalyzeRequest) (int, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp.StatusCode, br
}

// TestBatchAnalyze submits a mixed batch — two analyzable programs, one
// parse failure, one duplicate — and expects per-item results in request
// order under a 200 envelope: partial failure never fails siblings.
func TestBatchAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	second := buggySrc + "\nfunc pad() { p = malloc(); }"
	status, br := postBatch(t, ts.URL, AnalyzeRequest{Items: []AnalyzeItem{
		{Source: buggySrc},
		{Source: "func {"}, // parse failure: fails its slot only
		{Source: second},
		{Source: buggySrc}, // duplicate of item 0: coalesced or cache-served
	}})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if len(br.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(br.Items))
	}
	if br.Completed != 3 || br.Failed != 1 {
		t.Fatalf("tally = %d completed / %d failed, want 3/1", br.Completed, br.Failed)
	}
	for _, i := range []int{0, 2, 3} {
		if br.Items[i].Status != string(JobDone) {
			t.Errorf("item %d = %+v, want done", i, br.Items[i])
		}
	}
	if br.Items[1].Status != string(JobFailed) || br.Items[1].Error == "" {
		t.Errorf("item 1 = %+v, want failed with error detail", br.Items[1])
	}
	// Order is the request order: items 0 and 3 share a key, item 2 differs.
	if br.Items[0].CacheKey != br.Items[3].CacheKey {
		t.Error("duplicate items landed on different cache keys")
	}
	if br.Items[0].CacheKey == br.Items[2].CacheKey {
		t.Error("distinct items share a cache key")
	}
	if compactJSON(t, br.Items[0].Result) != compactJSON(t, br.Items[3].Result) {
		t.Error("duplicate items returned different result bytes")
	}

	// The batch envelope shows up in the metrics.
	_, body := getJSON(t, ts.URL+"/metrics")
	for _, want := range []string{
		"canaryd_batch_requests_total 1",
		"canaryd_batch_items_total 4",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = s
}

// TestBatchValidation covers the envelope-level 400 surface: mixing the
// single and batch forms, async batches, empty items, and oversized
// batches are rejected before any work is admitted.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []AnalyzeRequest{
		{Source: buggySrc, Items: []AnalyzeItem{{Source: buggySrc}}},
		{Async: true, Items: []AnalyzeItem{{Source: buggySrc}}},
		{Items: []AnalyzeItem{{Source: buggySrc}, {}}},
		{Items: make([]AnalyzeItem, api.MaxBatchItems+1)},
	}
	for i := range cases {
		for j := range cases[i].Items {
			if cases[i].Items[j].Source == "" && i == 3 {
				cases[i].Items[j].Source = "func main() { }"
			}
		}
		body, err := json.Marshal(cases[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d status = %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestHealthzDetail checks the machine-readable readiness report: the
// JSON form carries node identity and queue observables, while the
// plain-text form stays a bare "ok".
func TestHealthzDetail(t *testing.T) {
	_, ts := newTestServer(t, Config{NodeID: "node-test-1", QueueDepth: 7})

	code, body := getJSON(t, ts.URL+"/healthz?format=json")
	if code != http.StatusOK {
		t.Fatalf("healthz json status = %d", code)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz is not JSON: %v (%s)", err, body)
	}
	if h.Status != "ok" || h.NodeID != "node-test-1" || h.QueueCapacity != 7 {
		t.Fatalf("health = %+v", h)
	}
	if h.QueueDepth != 0 {
		t.Fatalf("idle server reports a backlog: %+v", h)
	}

	// The Accept header selects JSON too.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Accept: application/json got Content-Type %q", ct)
	}

	// Plain text stays plain.
	code, body = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("plain healthz = %d %q", code, body)
	}
}

// TestInFlightCoalescing submits the same source twice while the first
// job is still running and expects the second submission to join the
// live job instead of queueing a duplicate.
func TestInFlightCoalescing(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.jobStartHook = func(*Job) { <-release }
	t.Cleanup(func() { drainServer(t, s) })

	j1, err := s.Submit(buggySrc, canary.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	j2, err := s.Submit(buggySrc, canary.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submissions did not coalesce")
	}
	if got := s.metrics.coalesced.Load(); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("coalesced submission still queued: depth = %d", d)
	}

	close(release)
	<-j1.Done()
	if j1.State() != JobDone {
		t.Fatalf("job state = %s", j1.State())
	}

	// After completion the key leaves the in-flight table; a repeat is a
	// cache hit, not a join.
	j3, err := s.Submit(buggySrc, canary.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Done()
	if j3 == j1 {
		t.Fatal("completed job still coalescing new submissions")
	}
	if _, cached, _ := j3.Result(); !cached {
		t.Fatal("post-completion repeat should be cache-served")
	}
}

// newJoinServer starts a server with dynamic membership over a real
// listener; the listener exists first so the advertised URL is real.
func newJoinServer(t *testing.T, seeds []string) (*Server, string) {
	t.Helper()
	var h atomic.Pointer[http.Handler]
	dispatch := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hp := h.Load(); hp != nil {
			(*hp).ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(dispatch)
	t.Cleanup(ts.Close)
	if len(seeds) == 0 {
		seeds = []string{ts.URL} // self-seed: skipped in the table, membership on
	}
	s, err := New(Config{
		Join:           append([]string(nil), seeds...),
		Advertise:      ts.URL,
		GossipInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	h.Store(&handler)
	t.Cleanup(func() { drainServer(t, s) })
	return s, ts.URL
}

// TestJoinedWorkersGossip: two workers that share one seed learn each
// other through gossip alone, and each reports both in its readiness.
func TestJoinedWorkersGossip(t *testing.T) {
	sA, urlA := newJoinServer(t, nil)
	sB, _ := newJoinServer(t, []string{urlA})
	deadline := time.Now().Add(10 * time.Second)
	for sA.Health().MembersAlive != 2 || sB.Health().MembersAlive != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("members alive: A %d, B %d, want 2 each", sA.Health().MembersAlive, sB.Health().MembersAlive)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
