package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"canary/internal/api"
	"canary/internal/workload"
)

// answer posts one analysis and returns the status and the raw body.
func answer(t *testing.T, url string, req AnalyzeRequest) (int, []byte) {
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// checkJobAnswer checks that body is, byte for byte, json.Marshal of the
// job's response and a newline, and that it decodes to the same value as
// the indented encoding canaryd used to write.
func checkJobAnswer(t *testing.T, s *Server, what string, body []byte) JobResponse {
	t.Helper()
	var got JobResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: decoding answer: %v", what, err)
	}
	job, ok := s.Job(got.JobID)
	if !ok {
		t.Fatalf("%s: answer names unknown job %q", what, got.JobID)
	}
	resp := responseOf(job.view())
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("%s: answer is not json.Marshal of the job plus a newline:\n%s\nwant\n%s", what, body, want)
	}
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	var a, b any
	if json.Unmarshal(body, &a) != nil || json.Unmarshal(indented.Bytes(), &b) != nil || !reflect.DeepEqual(a, b) {
		t.Errorf("%s: compact answer decodes differently from the indented one", what)
	}
	return got
}

// TestJobAnswersAreCompactMarshal: every single-form job answer — a fresh
// analysis, a cached hit, a failed job and an async 202 — is compact
// json.Marshal output with the stored result inserted unchanged.
func TestJobAnswersAreCompactMarshal(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body := answer(t, ts.URL, AnalyzeRequest{Source: buggySrc})
	if fresh := checkJobAnswer(t, s, "fresh", body); status != http.StatusOK || fresh.Cached || len(fresh.Result) == 0 {
		t.Fatalf("fresh analysis: status %d, %+v", status, fresh)
	}
	status, body = answer(t, ts.URL, AnalyzeRequest{Source: buggySrc})
	if hit := checkJobAnswer(t, s, "cached hit", body); status != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat: status %d, cached %v", status, hit.Cached)
	}
	status, body = answer(t, ts.URL, AnalyzeRequest{Source: "func main() {"})
	failed := checkJobAnswer(t, s, "failed", body)
	if status != http.StatusUnprocessableEntity || failed.Error == "" {
		t.Fatalf("unparsable source: status %d, %+v", status, failed)
	}
	code, jobBody := getJSON(t, ts.URL+"/v1/jobs/"+failed.JobID)
	if code != http.StatusOK {
		t.Fatalf("GET job: status %d", code)
	}
	checkJobAnswer(t, s, "GET job", jobBody)

	// An async 202 of a job that stays queued behind a held one.
	s2, err := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s2.jobStartHook = func(*Job) { <-release }
	t.Cleanup(func() { drainServer(t, s2) })
	t.Cleanup(func() { close(release) })
	if _, err := s2.Submit(buggySrc, s2.cfg.Options, 0); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s2, 1)
	rec := &discardWriter{header: http.Header{}}
	req, _ := http.NewRequest(http.MethodPost, "/v1/analyze",
		strings.NewReader(`{"source":"func main() { x = malloc(); }","async":true}`))
	s2.Handler().ServeHTTP(rec, req)
	if queued := checkJobAnswer(t, s2, "async", rec.body.Bytes()); rec.status != http.StatusAccepted || queued.Status != string(JobQueued) {
		t.Fatalf("async: status %d, %+v", rec.status, queued)
	}
}

// TestOversizedContentLengthRejected413: a body whose Content-Length is
// already above the limit is refused 413 like one that only turns out to
// be too long, and the reader's buffer is never sized past the limit.
func TestOversizedContentLengthRejected413(t *testing.T) {
	s, err := New(Config{MaxRequestBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainServer(t, s) })
	for _, path := range []string{"/v1/analyze", "/v1/sessions"} {
		body := `{"source":"` + strings.Repeat("x", 8192) + `"}`
		req, _ := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.ContentLength = 1 << 40
		rec := &discardWriter{header: http.Header{}}
		s.Handler().ServeHTTP(rec, req)
		var e api.ErrorResponse
		if rec.status != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.body.Bytes(), &e) != nil ||
			!strings.Contains(e.Error, "4096") {
			t.Errorf("%s: status %d, body %s; want 413 naming the limit", path, rec.status, rec.body.Bytes())
		}
	}
	if s.metrics.accepted.Load() != 0 {
		t.Error("an oversized body must not count as an accepted job")
	}
}

// discardWriter is a ResponseWriter that keeps the status and the body.
type discardWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// TestCacheHitAllocBytes bounds the bytes the daemon allocates to serve
// one cached hit of a serve-mixed-shaped program (about 57 KB of request,
// 32 KB of answer) through Server.Handler(): read the body, decode it,
// key it and write the stored result. Reading into a buffer sized from
// Content-Length, keying in one pass and inserting the stored result into
// a compact answer keep a hit near two copies of its source; the
// growing read, the Split/Join canonicalizer and the indenting encoder
// came to several times that.
func TestCacheHitAllocBytes(t *testing.T) {
	const ceilingKB = 300
	src := workload.Generate(workload.Spec{
		Name: "serve-mixed", Lines: 3000, Seed: 1_000_000,
		TruePositives: 16, CanaryFPs: 8, Fig2Traps: 32, OrderTraps: 16, LockTraps: 16, SaberTraps: 8, Fan: 8,
	})
	body, err := json.Marshal(AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainServer(t, s) })
	h := s.Handler()
	w := &discardWriter{}
	hit := func() {
		// The answer's buffer is reused: its bytes are the test's, not
		// the daemon's.
		w.header, w.status = http.Header{}, 0
		w.body.Reset()
		req, _ := http.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	}
	hit() // the miss that fills the store
	hit()
	var jr JobResponse
	if err := json.Unmarshal(w.body.Bytes(), &jr); err != nil || !jr.Cached {
		t.Fatalf("the repeat was not a cached hit (%v)", err)
	}
	const hits = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits / 1024
	t.Logf("request %d B, answer %d B: %.0f KB allocated per hit", len(body), w.body.Len(), perHit)
	if perHit > ceilingKB {
		t.Errorf("a cached hit allocates %.0f KB, ceiling %d KB", perHit, ceilingKB)
	}
}

// BenchmarkCacheHit times one cached hit of a serve-mixed-shaped program
// over loopback HTTP, client included: send the body, read the answer.
func BenchmarkCacheHit(b *testing.B) {
	src := workload.Generate(workload.Spec{
		Name: "serve-mixed", Lines: 3000, Seed: 1_000_000,
		TruePositives: 16, CanaryFPs: 8, Fig2Traps: 32, OrderTraps: 16, LockTraps: 16, SaberTraps: 8, Fan: 8,
	})
	body, err := json.Marshal(AnalyzeRequest{Source: src})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(b, s)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		resp.Body.Close()
	}
	post() // the miss that fills the store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
