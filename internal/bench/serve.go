package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"canary/internal/api"
	"canary/internal/pipeline"
	"canary/internal/workload"
)

// ServePhase is one pass of the serve experiment's request list through
// canaryd, as the daemon's content-addressed result store saw it.
type ServePhase struct {
	Requests int `json:"requests"`
	// Cached counts the responses marked cached.
	Cached      int    `json:"cached"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// ServeResult is the service-mode experiment over a canaryd built from
// this module: a cold phase of distinct programs (every submission
// misses the result store) and a warm phase replaying them (every
// submission hits and returns the cold bytes), then the daemon's
// refusal paths and its SIGTERM drain.
type ServeResult struct {
	Lines     int        `json:"lines"`
	Clients   int        `json:"clients"`
	PerClient int        `json:"per_client"`
	Cold      ServePhase `json:"cold"`
	Warm      ServePhase `json:"warm"`
	// CLIReports is the report count of the first program, on which the
	// daemon's findings equal the canary CLI's byte for byte.
	CLIReports int `json:"cli_reports"`
	// Retries counts the 503s, each honoured after its Retry-After, until
	// a saturated daemon admitted the submission it had refused.
	Retries int `json:"retries"`
}

// The canaryd result-store counters the serve phases read.
const (
	mCacheHits   = "canaryd_result_cache_hits_total"
	mCacheMisses = "canaryd_result_cache_misses_total"
)

// serveCounters is what the serve experiment expects of canaryd's
// /metrics after requests cold analyses and their warm replays: every
// replay cache-served, every registry stage observed once per cold
// analysis, no budget exhausted, no panic, no quarantined summary.
func serveCounters(requests uint64) map[string]uint64 {
	want := map[string]uint64{
		"canaryd_jobs_accepted_total":                        2 * requests,
		"canaryd_jobs_completed_total":                       2 * requests,
		"canaryd_jobs_failed_total":                          0,
		"canaryd_jobs_cache_served_total":                    requests,
		mCacheHits:                                           requests,
		mCacheMisses:                                         requests,
		"canaryd_panics_recovered_total":                     0,
		"canaryd_quarantined_summaries_total":                0,
		`canaryd_stage_latency_seconds_count{stage="total"}`: requests,
	}
	for _, st := range pipeline.StageNames() {
		want[fmt.Sprintf("canaryd_stage_latency_seconds_count{stage=%q}", st)] = requests
	}
	for _, dim := range pipeline.BudgetDimensions() {
		want[fmt.Sprintf("canaryd_budget_exhausted_total{stage=%q}", dim)] = 0
	}
	return want
}

// RunServe drives a canaryd built from this module over real HTTP:
// clients concurrent submitters each push perClient distinct programs
// (seed-varied copies of spec) through a two-worker daemon, then replay
// them warm. Each gate is an ErrGate: /healthz answers ok, the cold
// phase misses the result store on every request and the warm phase hits
// on every one with byte-identical results, the first program's findings
// equal the canary CLI's, an oversized body gets 413 with a JSON error,
// /metrics carries the serveCounters values, a saturated daemon answers
// 503 with Retry-After and then admits the retried submission, and
// SIGTERM drains the daemon to exit 0.
func (e *Experiments) RunServe(spec workload.Spec, clients, perClient int) (ServeResult, error) {
	res := ServeResult{Lines: spec.Lines, Clients: clients, PerClient: perClient}
	if clients <= 0 || perClient <= 0 {
		return res, fmt.Errorf("serve experiment needs clients > 0 and requests > 0")
	}
	requests := clients * perClient
	srcs := make([]string, requests)
	longest := 0
	for i := range srcs {
		s := spec
		s.Seed = spec.Seed + int64(i)
		srcs[i] = workload.Generate(s)
		longest = max(longest, len(srcs[i]))
	}

	tmp, err := os.MkdirTemp("", "canary-serve-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildBinaries(tmp)
	if err != nil {
		return res, err
	}

	// A request-body cap a few times the largest program, so the 413
	// probe costs little; the queue holds every client's one request.
	maxBody := max(64<<10, 4*longest)
	d, err := startProc(bins.daemon, nil, "-addr", "127.0.0.1:0",
		"-max-request-bytes", strconv.Itoa(maxBody),
		"-max-concurrent", "2", "-queue-depth", strconv.Itoa(clients))
	if err != nil {
		return res, err
	}
	defer d.kill()

	status, _, body, err := call("GET", d.url+"/healthz", nil)
	if err != nil {
		return res, err
	}
	if status != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		return res, gatef("/healthz = %d %q, want 200 ok", status, body)
	}

	cold, err := e.servePhase(d.url, srcs, clients, &res.Cold)
	if err != nil {
		return res, err
	}
	if res.Cold.CacheMisses != uint64(requests) || res.Cold.CacheHits != 0 || res.Cold.Cached != 0 {
		return res, gatef("cold phase: %d hits, %d misses, %d cached answers for %d distinct programs",
			res.Cold.CacheHits, res.Cold.CacheMisses, res.Cold.Cached, requests)
	}
	if res.CLIReports, err = sameAsCLI(bins.cli, tmp, srcs[0], cold[0]); err != nil {
		return res, err
	}

	warm, err := e.servePhase(d.url, srcs, clients, &res.Warm)
	if err != nil {
		return res, err
	}
	if res.Warm.CacheHits != uint64(requests) || res.Warm.CacheMisses != 0 || res.Warm.Cached != requests {
		return res, gatef("warm phase: %d hits, %d misses, %d cached answers for %d replays",
			res.Warm.CacheHits, res.Warm.CacheMisses, res.Warm.Cached, requests)
	}
	for i := range warm {
		if string(warm[i].Result) != string(cold[i].Result) {
			return res, gatef("warm result %d differs from its cold result", i)
		}
	}

	// An oversized body is refused with 413 and a JSON error, and is
	// not counted as a job (serveCounters below checks that).
	big, _ := json.Marshal(api.AnalyzeRequest{Source: strings.Repeat("x", maxBody)})
	status, _, body, err = call("POST", d.url+"/v1/analyze", big)
	if err != nil {
		return res, err
	}
	var e413 api.ErrorResponse
	if status != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e413) != nil || e413.Error == "" {
		return res, gatef("oversized body: got %d %s, want 413 with a JSON error", status, body)
	}
	if err := expectCounters(d.url, serveCounters(uint64(requests))); err != nil {
		return res, err
	}

	if res.Retries, err = backpressure(bins.daemon, srcs[0]); err != nil {
		return res, err
	}
	e.logf("  serve: 503 admitted after %d retries\n", res.Retries)

	if err := d.terminate(30 * time.Second); err != nil {
		return res, gatef("daemon shutdown: %v", err)
	}
	return res, nil
}

// servePhase submits every program of srcs synchronously, split over
// clients concurrent submitters, and records the result-store counter
// deltas in ph. Every submission must complete.
func (e *Experiments) servePhase(url string, srcs []string, clients int, ph *ServePhase) ([]api.JobResponse, error) {
	before, err := scrapeCounters(url, mCacheHits, mCacheMisses)
	if err != nil {
		return nil, gatef("%v", err)
	}
	out := make([]api.JobResponse, len(srcs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(srcs) && errs[c] == nil; i += clients {
				body, _ := json.Marshal(api.AnalyzeRequest{Source: srcs[i]})
				status, _, buf, err := call("POST", url+"/v1/analyze", body)
				switch {
				case err != nil:
					errs[c] = err
				case status != http.StatusOK:
					errs[c] = gatef("program %d: status %d: %s", i, status, buf)
				case json.Unmarshal(buf, &out[i]) != nil || out[i].Status != "done":
					errs[c] = gatef("program %d: not done: %s", i, buf)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	after, err := scrapeCounters(url, mCacheHits, mCacheMisses)
	if err != nil {
		return nil, gatef("%v", err)
	}
	ph.Requests = len(srcs)
	for _, jr := range out {
		if jr.Cached {
			ph.Cached++
		}
	}
	ph.CacheHits = after[mCacheHits] - before[mCacheHits]
	ph.CacheMisses = after[mCacheMisses] - before[mCacheMisses]
	e.logf("  serve phase: %d requests, %d cached, %d hits/%d misses\n",
		ph.Requests, ph.Cached, ph.CacheHits, ph.CacheMisses)
	return out, nil
}

// sameAsCLI runs the canary CLI on src and returns its report count;
// the daemon's answer jr must carry the same findings, and at least one.
func sameAsCLI(cli, dir, src string, jr api.JobResponse) (int, error) {
	path := filepath.Join(dir, "program.cn")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		return 0, err
	}
	out, err := exec.Command(cli, "-json", "-fail-on-report=false", path).Output()
	if err != nil {
		return 0, fmt.Errorf("canary CLI: %v", err)
	}
	fromCLI, err := findingsOf(out)
	if err != nil {
		return 0, err
	}
	fromDaemon, err := findingsOf(jr.Result)
	if err != nil {
		return 0, err
	}
	if fromDaemon != fromCLI {
		return 0, gatef("daemon and CLI findings differ:\ndaemon: %s\ncli:    %s", fromDaemon, fromCLI)
	}
	var reports []json.RawMessage
	if err := json.Unmarshal([]byte(fromCLI), &reports); err != nil || len(reports) == 0 {
		return 0, gatef("the first program produced no report")
	}
	return len(reports), nil
}

// backpressure saturates a one-worker, one-slot canaryd whose dequeue
// stalls 500ms (a failpoint) with asynchronous submissions until one is
// refused 503 with a Retry-After header, then resubmits that one,
// waiting out each Retry-After, until it is admitted. It returns how
// many 503s the resubmission met.
func backpressure(daemon, src string) (int, error) {
	d, err := startProc(daemon, []string{"CANARY_FAILPOINTS=job-dequeue=sleep:500ms"},
		"-addr", "127.0.0.1:0", "-max-concurrent", "1", "-queue-depth", "1")
	if err != nil {
		return 0, err
	}
	defer d.kill()
	// A distinct DFS budget gives every submission its own content
	// address, so none is answered from the result store.
	body := func(i int) []byte {
		steps := 1<<20 + i
		b, _ := json.Marshal(api.AnalyzeRequest{Source: src, Async: true,
			Options: &api.OptionsPatch{MaxDFSSteps: &steps}})
		return b
	}
	for i := 0; i < 8; i++ {
		status, retryAfter, buf, err := call("POST", d.url+"/v1/analyze", body(i))
		if err != nil {
			return 0, err
		}
		if status == http.StatusAccepted {
			continue
		}
		if status != http.StatusServiceUnavailable || retryAfter == "" {
			return 0, gatef("submission %d to a saturated daemon: got %d (Retry-After %q): %s, want 202 or 503 with Retry-After",
				i, status, retryAfter, buf)
		}
		for retries := 1; retries <= 20; retries++ {
			secs, err := strconv.Atoi(retryAfter)
			if err != nil || secs <= 0 {
				return 0, gatef("Retry-After %q is not a positive number of seconds", retryAfter)
			}
			time.Sleep(time.Duration(secs) * time.Second)
			status, retryAfter, buf, err = call("POST", d.url+"/v1/analyze", body(i))
			if err != nil {
				return 0, err
			}
			if status == http.StatusAccepted {
				return retries, nil
			}
			if status != http.StatusServiceUnavailable {
				return 0, gatef("retry after 503: got %d: %s", status, buf)
			}
		}
		return 0, gatef("a refused submission was not admitted within 20 retries")
	}
	return 0, gatef("no 503 after saturating a one-worker, one-slot daemon")
}
