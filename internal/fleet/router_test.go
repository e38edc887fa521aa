package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/failpoint"
	"canary/internal/fleet"
	"canary/internal/membership"
	"canary/internal/server"
)

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

// newRouter starts a router whose advertised URL, unless cfg sets one,
// is its own listener's, so workers can gossip back to it.
func newRouter(t *testing.T, cfg fleet.RouterConfig) (*fleet.Router, *httptest.Server) {
	t.Helper()
	var h atomic.Pointer[http.Handler]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hp := h.Load(); hp != nil {
			(*hp).ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	if cfg.Self == "" {
		cfg.Self = ts.URL
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = testInterval
	}
	rt, err := fleet.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	handler := rt.Handler()
	h.Store(&handler)
	return rt, ts
}

// testInterval is the gossip heartbeat of every test fleet.
const testInterval = 20 * time.Millisecond

// waitStates waits until pred holds over the router's worker states.
func waitStates(t *testing.T, rt *fleet.Router, what string, pred func(map[string]fleet.WorkerState) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred(rt.WorkerStates()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: states %v", what, rt.WorkerStates())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitUp waits until the router's ring is exactly workers, all up.
func waitUp(t *testing.T, rt *fleet.Router, workers ...string) {
	t.Helper()
	waitStates(t, rt, "router never learned its workers up", func(st map[string]fleet.WorkerState) bool {
		if len(st) != len(workers) {
			return false
		}
		for _, w := range workers {
			if s, ok := st[w]; !ok || s != fleet.WorkerUp {
				return false
			}
		}
		return true
	})
}

func post(t *testing.T, url string, v interface{}) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
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

// reportsOf extracts the findings from a serialized result — the part of
// the output the determinism contract pins byte-for-byte (timings vary).
func reportsOf(t *testing.T, result json.RawMessage) string {
	t.Helper()
	var m struct {
		Reports json.RawMessage `json:"Reports"`
	}
	if err := json.Unmarshal(result, &m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, m.Reports); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRouterForwardsAndAgreesWithDirect routes one submission through a
// two-worker fleet and checks the findings equal a direct library run:
// routing must be invisible in the output.
func TestRouterForwardsAndAgreesWithDirect(t *testing.T) {
	w1, _ := newJoinWorker(t, nil, 0)
	w2, _ := newJoinWorker(t, []string{w1}, 0)
	rt, ts := newRouter(t, fleet.RouterConfig{Join: []string{w1}})
	waitUp(t, rt, w1, w2)

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	if code != http.StatusOK {
		t.Fatalf("routed submission = %d: %s", code, body)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != "done" {
		t.Fatalf("routed job = %+v", jr)
	}

	res, err := canary.Analyze(buggySrc, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if reportsOf(t, jr.Result) != reportsOf(t, direct) {
		t.Fatalf("routed findings differ from a direct library run:\nrouted: %s\ndirect: %s", reportsOf(t, jr.Result), reportsOf(t, direct))
	}

	// A repeat routes to the same owner and hits its cache.
	code, body = post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	var warm api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &warm) != nil {
		t.Fatalf("warm repeat = %d", code)
	}
	if !warm.Cached {
		t.Fatal("repeat through the router should hit the owner's cache")
	}
	if got := rt.Stats(); got.Requests != 2 || got.Exhausted != 0 {
		t.Fatalf("router stats = %+v", got)
	}
}

// TestRouterBatchFanout sends a batch through two workers and checks
// per-item results come back in request order with the owner split the
// ring dictates.
func TestRouterBatchFanout(t *testing.T) {
	w1, _ := newJoinWorker(t, nil, 0)
	w2, _ := newJoinWorker(t, []string{w1}, 0)
	rt, ts := newRouter(t, fleet.RouterConfig{Join: []string{w1}})
	waitUp(t, rt, w1, w2)

	// Three items owned by each worker, interleaved, taken from the ring
	// itself: a fixed list of padded sources lands on one random-port
	// worker now and then.
	items := make([]api.AnalyzeItem, 6)
	wantKeys := make([]string, len(items))
	ownerCount := map[string]int{}
	for i := range items {
		src := srcOwnedBy(t, rt, []string{w1, w2}[i%2], i/2)
		items[i] = api.AnalyzeItem{Source: src}
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		wantKeys[i] = fmt.Sprintf("%x", key)
		ownerCount[rt.Ring().Owner(key)]++
	}
	// Both workers must own something, or the test would silently cover
	// less than it claims.
	if len(ownerCount) != 2 {
		t.Fatalf("corpus does not split across both workers: %v", ownerCount)
	}

	code, body := post(t, ts.URL, api.AnalyzeRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Completed != len(items) || br.Failed != 0 {
		t.Fatalf("tally = %d/%d, want %d/0", br.Completed, br.Failed, len(items))
	}
	for i, it := range br.Items {
		if it.CacheKey != wantKeys[i] {
			t.Errorf("item %d came back under key %s, want %s (order broken?)", i, it.CacheKey, wantKeys[i])
		}
	}

	// Each worker computed exactly its owned share: the routing key the
	// router derived matches the daemon's own content addressing.
	statsA, statsB := workerCounter(t, w1, mAccepted), workerCounter(t, w2, mAccepted)
	if statsA != ownerCount[w1] || statsB != ownerCount[w2] {
		t.Errorf("owner split = %d/%d, ring says %d/%d",
			statsA, statsB, ownerCount[w1], ownerCount[w2])
	}
}

// TestRouterBatchLeavesOwnerThatTurnsDown: a batch group whose owner
// freezes mid-call (a SIGSTOPped process: connections stay open, nothing
// comes back, gossip included) is cancelled once the membership table
// reads the owner down, and its items complete on the other worker long
// before the upstream timeout.
func TestRouterBatchLeavesOwnerThatTurnsDown(t *testing.T) {
	w1, _ := newJoinWorker(t, nil, 0)
	var frozen atomic.Bool
	owner, _ := startJoinWorker(t, []string{w1}, time.Minute, &frozen, nil)
	rt, ts := newRouter(t, fleet.RouterConfig{
		Join: []string{w1},
		// Unreachable, so the frozen owner's outgoing gossip, which a
		// SIGSTOPped process would not send, cannot reach the router.
		Self:         "http://router.invalid",
		DeadAfter:    time.Minute, // the frozen owner stays in the ring
		RetryBackoff: time.Millisecond,
		Timeout:      time.Minute,
	})
	waitUp(t, rt, w1, owner)

	items := []api.AnalyzeItem{
		{Source: srcOwnedBy(t, rt, owner, 0)},
		{Source: srcOwnedBy(t, rt, owner, 1)},
	}
	frozen.Store(true)
	t0 := time.Now()
	code, body := post(t, ts.URL, api.AnalyzeRequest{Items: items})
	elapsed := time.Since(t0)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Completed != len(items) {
		t.Fatalf("tally = %d/%d completed: %s", br.Completed, len(items), body)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("batch took %v: it waited for the upstream timeout", elapsed)
	}
}

// The canaryd counters the router tests read. A worker observes its
// end-to-end latency once per analysis it runs; cache hits and coalesced
// submissions are not analyses.
const (
	mAccepted  = "canaryd_jobs_accepted_total"
	mCoalesced = "canaryd_inflight_coalesced_total"
	mAnalyses  = `canaryd_stage_latency_seconds_count{stage="total"}`
)

// workerCounter reads one counter from a worker's /metrics.
func workerCounter(t *testing.T, url, name string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("no %s in worker metrics", name)
	return 0
}

// fakeWorker is a scriptable stand-in for canaryd's analyze endpoint:
// per-request behavior by attempt count. startJoinWorker puts it behind
// a real membership agent.
type fakeWorker struct {
	mu       sync.Mutex
	requests int
	respond  func(n int, w http.ResponseWriter)
}

func (f *fakeWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.requests++
		n := f.requests
		f.mu.Unlock()
		f.respond(n, w)
	})
	return mux
}

func (f *fakeWorker) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

func okJob(w http.ResponseWriter, tag string) {
	json.NewEncoder(w).Encode(api.JobResponse{Status: "done", JobID: tag})
}

// TestRouterFailover scripts the owner to fail and expects the next
// replica in ring order to answer, with the failover counted.
func TestRouterFailover(t *testing.T) {
	// Both fakes answer; one is scripted to 500 every time. Whichever the
	// ring picks as owner, a routed submission must come back "done" from
	// the healthy one.
	bad := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}}
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		okJob(w, "good")
	}}
	badURL, _ := startJoinWorker(t, nil, 0, nil, bad.handler())
	goodURL, _ := startJoinWorker(t, []string{badURL}, 0, nil, good.handler())

	rt, ts := newRouter(t, fleet.RouterConfig{
		Join:         []string{badURL},
		RetryBackoff: time.Millisecond,
	})
	waitUp(t, rt, badURL, goodURL)

	// A source owned by the bad worker, so the walk must fail over.
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: srcOwnedBy(t, rt, badURL, 0)})
	if code != http.StatusOK {
		t.Fatalf("failover submission = %d: %s", code, body)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil || jr.JobID != "good" {
		t.Fatalf("response = %s", body)
	}
	if bad.count() == 0 || good.count() == 0 {
		t.Fatalf("owner was not tried first: bad=%d good=%d", bad.count(), good.count())
	}
	if got := rt.Stats(); got.Failovers == 0 || got.UpstreamErrs == 0 {
		t.Fatalf("failover not counted: %+v", got)
	}
}

// TestRouterExhaustion: every worker fails → 502, exhaustion counted.
func TestRouterExhaustion(t *testing.T) {
	bad := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}}
	badURL, _ := startJoinWorker(t, nil, 0, nil, bad.handler())

	rt, ts := newRouter(t, fleet.RouterConfig{
		Join:         []string{badURL},
		RetryBackoff: time.Millisecond,
	})
	waitUp(t, rt, badURL)
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	if code != http.StatusBadGateway {
		t.Fatalf("exhausted walk = %d: %s", code, body)
	}
	if got := rt.Stats(); got.Exhausted != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestRouterDedup sends concurrent identical submissions through the
// router to one real worker, held at dequeue so every copy arrives while
// the first is in flight: the router forwards them all, and the owner's
// in-flight table — the fleet's one dedup layer — runs one analysis and
// gives every caller the same body.
func TestRouterDedup(t *testing.T) {
	w, _ := newJoinWorker(t, nil, 0)
	rt, ts := newRouter(t, fleet.RouterConfig{Join: []string{w}})
	waitUp(t, rt, w)
	if err := failpoint.Enable(failpoint.SiteJobDequeue, "sleep:1s"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()

	const callers = 8
	req, _ := json.Marshal(api.AnalyzeRequest{Source: buggySrc})
	var wg sync.WaitGroup
	codes := make([]int, callers)
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := range bodies {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got %d, a different body:\n%s\nvs\n%s", i, codes[i], bodies[i], bodies[0])
		}
	}
	if got := workerCounter(t, w, mAnalyses); got != 1 {
		t.Fatalf("the worker ran %d analyses, want 1", got)
	}
	if got := workerCounter(t, w, mCoalesced); got != callers-1 {
		t.Fatalf("the worker coalesced %d submissions, want %d", got, callers-1)
	}
	if got := rt.Stats().Forwards; got != callers {
		t.Fatalf("router forwards = %d, want %d", got, callers)
	}
}

// TestRouterRejectsAsync: async is a per-worker concept.
func TestRouterRejectsAsync(t *testing.T) {
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "ok") }}
	wURL, _ := startJoinWorker(t, nil, 0, nil, good.handler())
	rt, ts := newRouter(t, fleet.RouterConfig{Join: []string{wURL}})
	waitUp(t, rt, wURL)

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc, Async: true})
	if code != http.StatusBadRequest {
		t.Fatalf("async through router = %d: %s", code, body)
	}
	if good.count() != 0 {
		t.Fatal("async request reached a worker")
	}
}

// postResp is post with header access, for tests that assert on
// Retry-After and friends.
func postResp(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// srcOwnedBy pads buggySrc until the ring places it on owner, and returns
// the source after skipping the first skip that land there.
func srcOwnedBy(t *testing.T, rt *fleet.Router, owner string, skip int) string {
	t.Helper()
	src := buggySrc
	for i := 0; ; i++ {
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		if rt.Ring().Owner(key) == owner {
			if skip == 0 {
				return src
			}
			skip--
		}
		if i > 256 {
			t.Fatal("no padded source lands on the wanted owner")
		}
		src = fmt.Sprintf("%s\nfunc pad%d() { p = malloc(); }", buggySrc, i)
	}
}

// TestRouterAllWorkersDownFailsFast: with every worker unreachable the
// router answers quickly with a typed JSON 502 plus a Retry-After hint
// instead of hanging, and resumes routing the moment membership brings a
// live worker back — no restart needed.
func TestRouterAllWorkersDownFailsFast(t *testing.T) {
	ok := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "corpse") }}
	corpseURL, kill := startJoinWorker(t, nil, time.Minute, nil, ok.handler())
	rt, ts := newRouter(t, fleet.RouterConfig{
		Join:         []string{corpseURL},
		DeadAfter:    time.Minute, // the corpse stays in the ring
		RetryBackoff: time.Millisecond,
		Timeout:      2 * time.Second,
	})
	waitUp(t, rt, corpseURL)
	kill() // every request fails from here on

	start := time.Now()
	resp := postResp(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-down submission = %d: %s", resp.StatusCode, buf.Bytes())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("all-down walk took %v, want fail-fast", elapsed)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(buf.Bytes(), &apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("error body is not typed JSON: %s", buf.Bytes())
	}
	if got := rt.Stats().Exhausted; got != 1 {
		t.Fatalf("exhausted = %d, want 1", got)
	}

	// An empty member set (nothing known) refuses with 503 + Retry-After
	// rather than attempting anything.
	rt.SetWorkers(nil)
	resp2 := postResp(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") != "1" {
		t.Fatalf("empty-ring submission = %d, Retry-After %q", resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	// Recovery: a live worker joins through the router itself, and the
	// next submission routes to it without a restart.
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "revived") }}
	goodURL, _ := startJoinWorker(t, []string{ts.URL}, 0, nil, good.handler())
	waitStates(t, rt, "the revived worker never came up", func(st map[string]fleet.WorkerState) bool {
		s, ok := st[goodURL]
		return ok && s == fleet.WorkerUp
	})
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	var jr api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &jr) != nil || jr.JobID != "revived" {
		t.Fatalf("post-recovery submission = %d: %s", code, body)
	}
}

// newJoinWorker starts a real canaryd that joins the fleet through
// seeds. A zero deadAfter keeps the membership default.
func newJoinWorker(t *testing.T, seeds []string, deadAfter time.Duration) (url string, kill func()) {
	t.Helper()
	return startJoinWorker(t, seeds, deadAfter, nil, nil)
}

// startJoinWorker starts a fleet worker that joins through seeds: a real
// canaryd, or with fake set, that handler behind a real membership
// agent. The listener exists before the worker so the advertise URL is
// its own real address. The returned kill makes the whole endpoint
// vanish like SIGKILL (everything 503s, gossip included), and while
// frozen (if not nil) holds, every request is read and left unanswered
// until the caller hangs up, like a SIGSTOPped process.
func startJoinWorker(t *testing.T, seeds []string, deadAfter time.Duration, frozen *atomic.Bool, fake http.Handler) (url string, kill func()) {
	t.Helper()
	var h atomic.Pointer[http.Handler]
	thaw := make(chan struct{})
	dispatch := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if frozen != nil && frozen.Load() {
			io.Copy(io.Discard, r.Body) // so the server notices the caller hang up
			select {
			case <-r.Context().Done():
			case <-thaw:
			}
			return
		}
		if hp := h.Load(); hp != nil {
			(*hp).ServeHTTP(w, r)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(dispatch)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(thaw) }) // runs before ts.Close
	if len(seeds) == 0 {
		// A first node seeds with itself: the agent skips self in the
		// seed list, but membership (and the gossip endpoint) is on.
		seeds = []string{ts.URL}
	}
	var stop func()
	var handler http.Handler
	if fake == nil {
		s, err := server.New(server.Config{
			Join:           append([]string(nil), seeds...),
			Advertise:      ts.URL,
			GossipInterval: testInterval,
			DeadAfter:      deadAfter,
		})
		if err != nil {
			t.Fatal(err)
		}
		handler = s.Handler()
		stop = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}
	} else {
		agent, err := membership.New(membership.Config{
			Self:      ts.URL,
			Role:      api.RoleWorker,
			Seeds:     seeds,
			Interval:  testInterval,
			DeadAfter: deadAfter,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/gossip", agent.ServeGossip)
		mux.Handle("/", fake)
		handler = mux
		agent.Start()
		stop = agent.Close
	}
	h.Store(&handler)
	killed := false
	kill = func() {
		if killed {
			return
		}
		killed = true
		h.Store(nil)
		stop()
	}
	t.Cleanup(kill)
	return ts.URL, kill
}

// TestRouterJoinLearnsWorkers boots two real workers gossiping among
// themselves and a router configured with nothing but join seeds: the
// router must learn the worker set through membership, build its ring,
// route a real submission — and drop a worker from the ring when it
// dies, all without being restarted.
func TestRouterJoinLearnsWorkers(t *testing.T) {
	w1, _ := newJoinWorker(t, nil, 0)
	w2, killW2 := newJoinWorker(t, []string{w1}, 0)

	rt, ts := newRouter(t, fleet.RouterConfig{
		Join:         []string{w1},
		RetryBackoff: time.Millisecond,
	})

	deadline := time.Now().Add(10 * time.Second)
	for rt.Ring().Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("router never learned both workers: ring len %d", rt.Ring().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	var jr api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &jr) != nil || jr.Status != "done" {
		t.Fatalf("routed submission over learned ring = %d: %s", code, body)
	}

	// Kill worker 2; the router must shrink the ring to the survivor on
	// its own (suspect → dead on the gossip clocks, then an OnChange).
	killW2()
	_ = w2
	deadline = time.Now().Add(20 * time.Second)
	for rt.Ring().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("router never dropped the dead worker: ring len %d", rt.Ring().Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rt.Ring().Owner(canary.SubmissionKey(buggySrc, canary.DefaultOptions())) != w1 {
		t.Fatal("survivor is not the remaining ring member")
	}
}

// newRouterWithSuspect boots two real workers and a join-mode router,
// kills the second worker and waits until the router reports it down.
// The long dead window keeps the killed worker suspect, so it stays in
// the ring.
func newRouterWithSuspect(t *testing.T) (rt *fleet.Router, ts *httptest.Server, live, suspect string) {
	t.Helper()
	const deadAfter = time.Minute
	w1, _ := newJoinWorker(t, nil, deadAfter)
	w2, killW2 := newJoinWorker(t, []string{w1}, deadAfter)

	rt, ts = newRouter(t, fleet.RouterConfig{
		Join:         []string{w1},
		DeadAfter:    deadAfter,
		RetryBackoff: time.Millisecond,
	})
	waitUp(t, rt, w1, w2)

	killW2()
	waitStates(t, rt, "killed worker never reported down", func(st map[string]fleet.WorkerState) bool {
		return st[w2] == fleet.WorkerDown && st[w1] == fleet.WorkerUp
	})
	return rt, ts, w1, w2
}

// TestRouterJoinStatesFromMembership: the router takes worker liveness
// from its membership table. It reports learned workers up, and reports
// a killed worker down while the suspect window keeps it in the ring,
// ranking it last: a submission the corpse owns goes straight to the
// survivor.
func TestRouterJoinStatesFromMembership(t *testing.T) {
	rt, ts, _, w2 := newRouterWithSuspect(t)
	before := rt.Stats()
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: srcOwnedBy(t, rt, w2, 0)})
	var jr api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &jr) != nil || jr.Status != "done" {
		t.Fatalf("submission owned by the suspect worker = %d: %s", code, body)
	}
	after := rt.Stats()
	if got := after.Forwards - before.Forwards; got != 1 || after.Failovers != before.Failovers {
		t.Fatalf("forwards +%d, failovers +%d: the suspect owner was not ranked last",
			got, after.Failovers-before.Failovers)
	}
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring len %d: the suspect worker left the ring", rt.Ring().Len())
	}
}

// TestRouterHealthStates: the router's /healthz report lists every
// worker with the state membership gives it, a live one up and a
// killed one down.
func TestRouterHealthStates(t *testing.T) {
	_, ts, w1, w2 := newRouterWithSuspect(t)
	resp, err := http.Get(ts.URL + "/healthz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report struct {
		Status  string `json:"status"`
		Workers []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Status != "ok" || len(report.Workers) != 2 {
		t.Fatalf("healthz report = %+v", report)
	}
	states := map[string]string{}
	for _, w := range report.Workers {
		states[w.URL] = w.State
	}
	if states[w2] != "down" || states[w1] != "up" {
		t.Fatalf("reported states = %v", states)
	}
}
