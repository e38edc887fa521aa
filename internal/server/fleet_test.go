package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/diskstore"
	"canary/internal/failpoint"
	"canary/internal/fleet"
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

// TestCacheGetEndpoint checks the peer cache tier's read side: a stored
// result ships in the diskstore entry framing (decodable with the
// standard decoder, payload byte-identical to the job's result), misses
// and unknown namespaces are 404, malformed keys 400. "verdict", the
// namespace of the deleted verdict store, is unknown.
func TestCacheGetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, jr := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc})
	if status != http.StatusOK || jr.Status != string(JobDone) {
		t.Fatalf("seed submission = %d %+v", status, jr)
	}

	code, body := getJSON(t, ts.URL+"/v1/cache/result/"+jr.CacheKey)
	if code != http.StatusOK {
		t.Fatalf("cache get status = %d: %s", code, body)
	}
	payload, ok := diskstore.DecodeEntry(body)
	if !ok {
		t.Fatal("cache entry does not decode with the diskstore framing")
	}
	if compactJSON(t, payload) != compactJSON(t, jr.Result) {
		t.Fatal("cache entry payload differs from the job result")
	}

	missKey := strings.Repeat("0", 64)
	if code, _ := getJSON(t, ts.URL+"/v1/cache/result/"+missKey); code != http.StatusNotFound {
		t.Errorf("miss status = %d, want 404", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/cache/result/zzzz"); code != http.StatusBadRequest {
		t.Errorf("malformed key status = %d, want 400", code)
	}
	for _, ns := range []string{"bogus", "verdict"} {
		code, body := getJSON(t, ts.URL+"/v1/cache/"+ns+"/"+jr.CacheKey)
		if code != http.StatusNotFound || !strings.Contains(string(body), "unknown cache namespace") {
			t.Errorf("namespace %q: status = %d %s, want the unknown-namespace 404", ns, code, body)
		}
	}

	_, metrics := getJSON(t, ts.URL+"/metrics")
	for _, want := range []string{
		"canaryd_peer_cache_get_hits_total 1",
		"canaryd_peer_cache_get_misses_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// joinedPair starts two workers that learn each other through gossip
// alone, waits until each holds both in its peer ring, and returns a
// source whose shard owner is A. kill makes A vanish like SIGKILL.
func joinedPair(t *testing.T) (sA *Server, urlA string, killA func(), sB *Server, urlB string, src string) {
	t.Helper()
	const interval = 20 * time.Millisecond
	sA, urlA, killA = newJoinServer(t, nil, interval)
	sB, urlB, _ = newJoinServer(t, []string{urlA}, interval)
	waitRing(t, sA, 2, "A converging")
	waitRing(t, sB, 2, "B converging")
	src = buggySrc
	for i := 0; ; i++ {
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		if fleet.NewRing([]string{urlA, urlB}).Owner(key) == urlA {
			return
		}
		if i > 256 {
			t.Fatal("no padded source lands on A")
		}
		src = fmt.Sprintf("%s\nfunc pad%d() { p = malloc(); }", buggySrc, i)
	}
}

// waitRing waits until s's peer ring holds want members.
func waitRing(t *testing.T, s *Server, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.peers.Ring().Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: peer ring stuck at %d, want %d", what, s.peers.Ring().Len(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeerCacheTier runs two joined servers: A computes a result, then
// B — which finds A the key's shard owner in its ring — serves the same
// submission from A's cache without computing, byte-identically, and a
// repeat on B is a local hit.
func TestPeerCacheTier(t *testing.T) {
	_, urlA, _, sB, urlB, src := joinedPair(t)

	status, cold := postAnalyze(t, urlA, AnalyzeRequest{Source: src})
	if status != http.StatusOK || cold.Status != string(JobDone) {
		t.Fatalf("seed on A = %d %+v", status, cold)
	}
	status, warm := postAnalyze(t, urlB, AnalyzeRequest{Source: src})
	if status != http.StatusOK || warm.Status != string(JobDone) {
		t.Fatalf("warm on B = %d %+v", status, warm)
	}
	if !warm.Cached {
		t.Fatalf("B should have served the peer copy as cached: %+v", warm)
	}
	if compactJSON(t, warm.Result) != compactJSON(t, cold.Result) {
		t.Fatal("peer-served result differs from the origin bytes")
	}
	stats := sB.peers.Stats()
	if stats.Fetches != 1 || stats.Hits != 1 {
		t.Fatalf("peer stats = %+v, want one fetch, one hit", stats)
	}

	// A repeat on B is now a plain local cache hit: no second fetch.
	status, again := postAnalyze(t, urlB, AnalyzeRequest{Source: src})
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("repeat on B = %d %+v", status, again)
	}
	if got := sB.peers.Stats().Fetches; got != 1 {
		t.Fatalf("repeat went back to the network: fetches = %d", got)
	}

	_, metrics := getJSON(t, urlB+"/metrics")
	for _, want := range []string{
		"canaryd_peer_jobs_served_total 1",
		"canaryd_peer_hits_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPeerFetchDegradesToLocalCompute arms the peer-fetch failpoint and
// proves the worker computes locally instead of failing the job: the
// peer tier can cost latency, never correctness.
func TestPeerFetchDegradesToLocalCompute(t *testing.T) {
	_, urlA, _, sB, urlB, src := joinedPair(t)
	status, cold := postAnalyze(t, urlA, AnalyzeRequest{Source: src})
	if status != http.StatusOK {
		t.Fatalf("seed on A = %d", status)
	}

	if err := failpoint.Enable(failpoint.SitePeerFetch, "error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()

	status, jr := postAnalyze(t, urlB, AnalyzeRequest{Source: src})
	if status != http.StatusOK || jr.Status != string(JobDone) {
		t.Fatalf("submission under peer fault = %d %+v", status, jr)
	}
	if jr.Cached {
		t.Fatal("peer fault should have forced a local compute")
	}
	// Timings differ across runs; the analysis content must not.
	if stripTimings(t, jr.Result) != stripTimings(t, cold.Result) {
		t.Fatal("locally computed result differs from the origin")
	}
	stats := sB.peers.Stats()
	if stats.Errors == 0 {
		t.Fatalf("injected fault not counted: %+v", stats)
	}
	if stats.Fetches != 0 {
		t.Fatalf("injected fault still touched the network: %+v", stats)
	}
}

// TestPeerResultMustBeJSON: answers carry a stored result without
// re-encoding it, so a peer entry that is framed correctly but is not
// JSON is refused and the worker computes locally.
func TestPeerResultMustBeJSON(t *testing.T) {
	sA, _, _, sB, urlB, src := joinedPair(t)
	sA.cache.Put(canary.SubmissionKey(src, canary.DefaultOptions()), []byte("{not json"))
	status, body := answer(t, urlB, AnalyzeRequest{Source: src})
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil || status != http.StatusOK || jr.Cached {
		t.Fatalf("status %d, cached %v, %v: want a local analysis in valid JSON", status, jr.Cached, err)
	}
	if stats := sB.peers.Stats(); stats.Fetches != 1 {
		t.Fatalf("peer stats %+v, want one fetch", stats)
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
// kill() makes the endpoint vanish like SIGKILL (everything 503s).
func newJoinServer(t *testing.T, seeds []string, interval time.Duration) (*Server, string, func()) {
	t.Helper()
	var h atomic.Pointer[http.Handler]
	dispatch := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hp := h.Load(); hp != nil {
			(*hp).ServeHTTP(w, r)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(dispatch)
	t.Cleanup(ts.Close)
	if len(seeds) == 0 {
		seeds = []string{ts.URL} // self-seed: skipped in the table, membership on
	}
	s, err := New(Config{
		Join:           append([]string(nil), seeds...),
		Advertise:      ts.URL,
		GossipInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	h.Store(&handler)
	killed := false
	kill := func() {
		if killed {
			return
		}
		killed = true
		h.Store(nil)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	t.Cleanup(kill)
	return s, ts.URL, kill
}

// TestMembershipPeerTier: when the owner of a peer-served key dies, the
// survivor's ring heals to itself and it keeps computing.
func TestMembershipPeerTier(t *testing.T) {
	_, urlA, killA, sB, urlB, src := joinedPair(t)

	status, cold := postAnalyze(t, urlA, AnalyzeRequest{Source: src})
	if status != http.StatusOK || cold.Status != string(JobDone) {
		t.Fatalf("seed on A = %d %+v", status, cold)
	}
	status, warm := postAnalyze(t, urlB, AnalyzeRequest{Source: src})
	if status != http.StatusOK || !warm.Cached {
		t.Fatalf("warm on B = %d %+v, want a peer-served copy", status, warm)
	}

	// Kill A. B's ring must heal to itself alone, and B must keep
	// answering fresh submissions (local compute, no peer in sight).
	killA()
	waitRing(t, sB, 1, "B healing after A's death")
	fresh := src + "\nfunc afterDeath() { q = malloc(); }"
	status, jr := postAnalyze(t, urlB, AnalyzeRequest{Source: fresh})
	if status != http.StatusOK || jr.Status != string(JobDone) {
		t.Fatalf("post-death submission on B = %d %+v", status, jr)
	}
	if jr.Cached {
		t.Fatal("fresh source cannot be cache-served")
	}
}
