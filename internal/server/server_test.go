package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"canary"
	"canary/internal/pipeline"
	"canary/internal/workload"
)

// buggySrc is a small program with one inter-thread use-after-free.
const buggySrc = `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (int, JobResponse) {
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
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, jr
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// stripTimings drops the wall-clock duration fields (and the trace spans
// carrying them) from a serialized canary.Result so two runs of the same
// submission compare equal: timings are the one part of the result that
// is not deterministic.
func stripTimings(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if vfg, ok := m["VFG"].(map[string]interface{}); ok {
		delete(vfg, "BuildTime")
		delete(vfg, "ParallelBuildTime")
	}
	if chk, ok := m["Check"].(map[string]interface{}); ok {
		delete(chk, "SearchTime")
		delete(chk, "SolveTime")
	}
	delete(m, "Trace")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSyncAnalyzeMatchesLibraryAndCache is the acceptance path: a cold
// sync submission returns the library's exact result, and a warm repeat is
// served from the content store byte-identically with the hit counter up.
func TestSyncAnalyzeMatchesLibraryAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	status, cold := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc})
	if status != http.StatusOK {
		t.Fatalf("cold status = %d (%+v)", status, cold)
	}
	if cold.Status != string(JobDone) || cold.Cached {
		t.Fatalf("cold = %+v", cold)
	}

	// The served result must be the library's result (modulo wall-clock
	// timing fields, the only nondeterministic part).
	res, err := canary.Analyze(buggySrc, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := stripTimings(t, cold.Result); got != stripTimings(t, want) {
		t.Fatalf("cold result differs from library:\n got: %s\nwant: %s", got, want)
	}

	hits0, _, _ := s.CacheStats()
	status, warm := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc})
	if status != http.StatusOK || warm.Status != string(JobDone) {
		t.Fatalf("warm = %d %+v", status, warm)
	}
	if !warm.Cached {
		t.Fatal("warm repeat should be served from the cache")
	}
	if hits1, _, _ := s.CacheStats(); hits1 != hits0+1 {
		t.Fatalf("cache hits %d -> %d, want +1", hits0, hits1)
	}
	if warm.CacheKey != cold.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", cold.CacheKey, warm.CacheKey)
	}
	if compactJSON(t, warm.Result) != compactJSON(t, cold.Result) {
		t.Fatal("warm result is not byte-identical to the cold run")
	}

	// A cosmetic reformat (CRLF, trailing blanks) still hits.
	reformatted := strings.ReplaceAll(buggySrc, "\n", "   \r\n")
	status, re := postAnalyze(t, ts.URL, AnalyzeRequest{Source: reformatted})
	if status != http.StatusOK || !re.Cached {
		t.Fatalf("reformatted submission should hit the cache: %d %+v", status, re)
	}

	// Different options miss.
	tso := "tso"
	status, other := postAnalyze(t, ts.URL, AnalyzeRequest{
		Source:  buggySrc,
		Options: &OptionsPatch{MemoryModel: &tso},
	})
	if status != http.StatusOK || other.Cached {
		t.Fatalf("different options must not share a cache entry: %d %+v", status, other)
	}
}

// TestAsyncJobLifecycle submits asynchronously and polls the job to done.
func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, acc := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc, Async: true})
	if status != http.StatusAccepted {
		t.Fatalf("async submit status = %d", status)
	}
	if acc.JobID == "" {
		t.Fatal("missing job_id")
	}

	deadline := time.Now().Add(30 * time.Second)
	var jr JobResponse
	for {
		code, body := getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID)
		if code != http.StatusOK {
			t.Fatalf("job poll status = %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Status == string(JobDone) || jr.Status == string(JobFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jr.Status != string(JobDone) {
		t.Fatalf("job failed: %s", jr.Error)
	}
	var res struct {
		Reports []struct{ Kind string }
	}
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Kind != "use-after-free" {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

// TestQueueBackpressure fills the one-deep queue behind a blocked worker
// and expects 503 with a Retry-After hint on the overflow submission.
// Admission checks the store and the single-flight table before the
// queue, so while the queue is full a cached key is still answered 200
// and a resubmitted queued key still joins its job.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	cachedSrc := buggySrc + "\nfunc cached() { p = malloc(); }"
	s.jobStartHook = func(j *Job) {
		if j.src != cachedSrc {
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, jr := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cachedSrc}); status != http.StatusOK || jr.Status != string(JobDone) {
		t.Fatalf("seeding the cache = %d %+v", status, jr)
	}
	// Job 1 occupies the worker; wait until it is actually running.
	_, j1 := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc, Async: true})
	waitRunning(t, s, 1)
	// Job 2 fills the queue (distinct source: job 1 has not finished, so
	// nothing is cached yet anyway).
	_, j2 := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc + "\nfunc pad() { p = malloc(); }", Async: true})

	body, err := json.Marshal(AnalyzeRequest{Source: buggySrc + "\nfunc pad2() { p = malloc(); }", Async: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}

	if status, jr := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cachedSrc}); status != http.StatusOK || !jr.Cached {
		t.Errorf("cached key under a full queue = %d %+v, want 200 cached", status, jr)
	}
	status, again := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc + "\nfunc pad() { p = malloc(); }", Async: true})
	if status != http.StatusAccepted || again.JobID != j2.JobID {
		t.Errorf("queued key under a full queue = %d %+v, want 202 joining %s", status, again, j2.JobID)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{j1.JobID, j2.JobID} {
		job, ok := s.Job(id)
		if !ok || job.State() != JobDone {
			t.Errorf("job %s: ok=%v state=%v", id, ok, job.State())
		}
	}
}

// TestJobDeadline bounds a job far below its analysis cost and expects a
// distinguishable deadline failure (504).
func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	slow := workload.Generate(workload.SizeSweep(1, 6400, 6400)[0])
	status, jr := postAnalyze(t, ts.URL, AnalyzeRequest{Source: slow, TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", status, jr)
	}
	if jr.Status != string(JobFailed) || !strings.Contains(jr.Error, "analysis canceled") {
		t.Fatalf("job = %+v", jr)
	}
}

// TestDrainCompletesInFlight is the SIGTERM acceptance path: draining
// rejects new submissions with 503 while the in-flight async job completes
// before Shutdown returns.
func TestDrainCompletesInFlight(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.jobStartHook = func(*Job) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, acc := postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc, Async: true})
	waitRunning(t, s, 1)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitDraining(t, s)

	// Health flips to 503 and new submissions are refused.
	if code, body := getJSON(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("healthz during drain = %d %q", code, body)
	}
	body, _ := json.Marshal(AnalyzeRequest{Source: buggySrc})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain = %d, want 503", resp.StatusCode)
	}

	// The in-flight job still completes, then shutdown returns.
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	job, ok := s.Job(acc.JobID)
	if !ok {
		t.Fatal("job record lost")
	}
	if job.State() != JobDone {
		t.Fatalf("in-flight job state after drain = %s", job.State())
	}
}

// TestMetricsExposition scrapes /metrics after a cold+warm pair and checks
// the counters and histogram series.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: buggySrc})

	code, body := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"canaryd_jobs_accepted_total 2",
		"canaryd_jobs_completed_total 2",
		"canaryd_jobs_failed_total 0",
		"canaryd_jobs_cache_served_total 1",
		"canaryd_result_cache_hits_total 1",
		"canaryd_result_cache_entries 1",
		"canaryd_queue_depth 0",
		"canaryd_draining 0",
		`canaryd_stage_latency_seconds_count{stage="total"} 1`,
		"canaryd_guard_intern_hits_total",
		"canaryd_summary_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every pipeline registry stage has a complete latency histogram fed
	// from the cold job's trace (the cache-served repeat observes nothing).
	for _, st := range pipeline.StageNames() {
		want := fmt.Sprintf("canaryd_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} 1", st)
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if code, body := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK ||
		!strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

// TestBadRequests covers the 400/404 surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}

	status, _ := postAnalyze(t, ts.URL, AnalyzeRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("missing source status = %d", status)
	}

	// A program that does not parse fails the job, not the HTTP exchange.
	status, jr := postAnalyze(t, ts.URL, AnalyzeRequest{Source: "func {"})
	if status != http.StatusUnprocessableEntity || jr.Status != string(JobFailed) {
		t.Errorf("parse failure = %d %+v", status, jr)
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", code)
	}
}

func waitRunning(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.metrics.running.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running jobs", want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitDirect exercises the Go-level Submit API the bench harness
// uses, including queue-depth visibility.
func TestSubmitDirect(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.jobStartHook = func(*Job) { <-release }

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(fmt.Sprintf("%s\nfunc pad%d() { p = malloc(); }", buggySrc, i),
			canary.DefaultOptions(), 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	waitRunning(t, s, 1)
	if d := s.QueueDepth(); d != 2 {
		t.Errorf("queue depth = %d, want 2", d)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State() != JobDone {
			t.Errorf("job %s state = %s", j.ID(), j.State())
		}
		if result, _, _ := j.Result(); len(result) == 0 {
			t.Errorf("job %s has no result bytes", j.ID())
		}
	}
	// Submit after shutdown is a clean rejection.
	if _, err := s.Submit(buggySrc, canary.DefaultOptions(), 0); err != ErrDraining {
		t.Errorf("submit after shutdown = %v, want ErrDraining", err)
	}
}
