package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/fleet"
	"canary/internal/workload"
)

// FleetNodeRun is one fleet size's measurements: a cold corpus batch
// through the router and a warm repeat.
type FleetNodeRun struct {
	Nodes int `json:"nodes"`
	// Cold batch: every item computed somewhere in the fleet.
	ColdWall    time.Duration `json:"cold_wall_ns"`
	ItemsPerSec float64       `json:"items_per_sec"`
	// Warm batch: the same corpus again; every item should be served from
	// its owner's cache.
	WarmWall   time.Duration `json:"warm_wall_ns"`
	WarmCached int           `json:"warm_cached"`
	// AcceptedPerNode is each worker's canaryd_jobs_accepted_total after
	// both batches: how the ring spread the corpus.
	AcceptedPerNode []int `json:"accepted_per_node"`
	// Identical: every item's findings, cold, warm and after a worker
	// kill, are byte-identical to the direct in-process library run —
	// routing must be invisible in the output.
	Identical bool              `json:"identical"`
	Router    fleet.RouterStats `json:"router"`
}

// FleetResult is the horizontal-scale experiment: the same corpus pushed
// through fleets of increasing size, plus a cross-node dedup burst.
type FleetResult struct {
	Lines int            `json:"lines"`
	Items int            `json:"items"`
	Runs  []FleetNodeRun `json:"runs"`
	// The dedup burst fires concurrent identical submissions of a fresh
	// key at the largest fleet's router, which forwards every one to the
	// key's owner: OwnerAnalyses counts the analyses the burst cost the
	// owner (the gate wants exactly one), WorkerCoalesced the submissions
	// that joined the owner's live job instead.
	DedupBurst      int    `json:"dedup_burst"`
	OwnerAnalyses   uint64 `json:"owner_analyses"`
	WorkerCoalesced uint64 `json:"worker_coalesced"`
	// AllIdentical: every fleet size produced the same findings as the
	// direct library run, for every item.
	AllIdentical bool `json:"all_identical"`
}

// fleetOptions is the analysis configuration of the direct baseline, and
// the one every fleet worker runs with (canaryd -workers 1). Workers=1
// keeps each analysis single-threaded so throughput scaling across node
// counts reflects the fleet, not the scheduler fighting itself over
// cores; SubmissionKey ignores Workers, so a router with default options
// keys items exactly as the workers do.
func fleetOptions() canary.Options {
	opt := canary.DefaultOptions()
	opt.Workers = 1
	return opt
}

// The canaryd counters the fleet experiment reads from /metrics. Every
// analysis a worker runs to completion is one observation of its
// end-to-end latency histogram; cache hits and coalesced submissions
// are none.
const (
	mAccepted  = "canaryd_jobs_accepted_total"
	mCoalesced = "canaryd_inflight_coalesced_total"
	mAnalyses  = `canaryd_stage_latency_seconds_count{stage="total"}`
)

// fleetGossip is the membership heartbeat of the fleet experiment's
// workers and router, the chaos experiment's default.
const fleetGossip = 150 * time.Millisecond

// routerCounters maps each canary-router /metrics counter onto its
// RouterStats field in s.
func routerCounters(s *fleet.RouterStats) map[string]*uint64 {
	return map[string]*uint64{
		"router_requests_total":        &s.Requests,
		"router_batch_requests_total":  &s.BatchRequests,
		"router_items_total":           &s.Items,
		"router_forwards_total":        &s.Forwards,
		"router_failovers_total":       &s.Failovers,
		"router_upstream_errors_total": &s.UpstreamErrs,
		"router_exhausted_total":       &s.Exhausted,
	}
}

// scrapeRouterStats reads a canary-router's counters from its /metrics.
func scrapeRouterStats(url string) (fleet.RouterStats, error) {
	var s fleet.RouterStats
	fields := routerCounters(&s)
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	page, err := scrapeCounters(url, names...)
	if err != nil {
		return s, err
	}
	for n, f := range fields {
		*f = page[n]
	}
	return s, nil
}

// waitWorkers polls a router's /healthz?format=json until pred holds
// over its worker → state ("up", "down", …) map.
func waitWorkers(routerURL string, timeout time.Duration, pred func(map[string]string) bool) error {
	var last map[string]string
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		var h struct {
			Workers []struct{ URL, State string }
		}
		resp, err := http.Get(routerURL + "/healthz?format=json")
		if err != nil {
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			continue
		}
		last = map[string]string{}
		for _, w := range h.Workers {
			last[w.URL] = w.State
		}
		if pred(last) {
			return nil
		}
	}
	return fmt.Errorf("router health never reached the expected worker states; last %v", last)
}

// countState counts the entries of a state map equal to state.
func countState(states map[string]string, state string) int {
	n := 0
	for _, s := range states {
		if s == state {
			n++
		}
	}
	return n
}

// postFleetBatch submits items as one batch to url and returns the
// per-item responses.
func postFleetBatch(hc *http.Client, url string, items []api.AnalyzeItem) (*api.BatchResponse, error) {
	body, err := json.Marshal(api.AnalyzeRequest{Items: items})
	if err != nil {
		return nil, err
	}
	resp, err := hc.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("batch to %s: status %d: %s", url, resp.StatusCode, b)
	}
	var br api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	return &br, nil
}

// findingsOf extracts the compacted Reports array from a serialized
// result: the determinism contract pins these bytes, timings vary.
func findingsOf(result json.RawMessage) (string, error) {
	var m struct {
		Reports json.RawMessage `json:"Reports"`
	}
	if err := json.Unmarshal(result, &m); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, m.Reports); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// directFindings analyzes src with the library, in this process, and
// returns its findings bytes: the only output any fleet may produce.
func directFindings(src string) (string, error) {
	r, err := canary.Analyze(src, fleetOptions())
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return findingsOf(raw)
}

// paddedCorpus derives n items from base, each with its own padding
// function (named pad0, pad1, …) so every item has its own content
// address but comparable cost, and returns their direct findings.
func paddedCorpus(base, pad string, n int) ([]api.AnalyzeItem, []string, error) {
	corpus := make([]api.AnalyzeItem, n)
	direct := make([]string, n)
	for i := range corpus {
		corpus[i].Source = fmt.Sprintf("%s\nfunc %s%d() { p%d = malloc(); }", base, pad, i, i)
		var err error
		if direct[i], err = directFindings(corpus[i].Source); err != nil {
			return nil, nil, fmt.Errorf("direct baseline item %d: %w", i, err)
		}
	}
	return corpus, direct, nil
}

// ownedItems derives n fresh items from base (padding functions named
// pad0, pad1, … skipped until the ring places the item on owner) and
// returns them with their direct findings.
func ownedItems(ring *fleet.Ring, owner, base, pad string, n int) ([]api.AnalyzeItem, []string, error) {
	var items []api.AnalyzeItem
	var want []string
	for i := 0; len(items) < n; i++ {
		src := fmt.Sprintf("%s\nfunc %s%d() { q%d = malloc(); }", base, pad, i, i)
		if ring.Owner(canary.SubmissionKey(src, fleetOptions())) != owner {
			continue
		}
		f, err := directFindings(src)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, api.AnalyzeItem{Source: src})
		want = append(want, f)
	}
	return items, want, nil
}

// sameFindings reports whether every item completed with findings
// byte-identical to want.
func sameFindings(items []api.JobResponse, want []string) bool {
	if len(items) != len(want) {
		return false
	}
	for i, it := range items {
		if f, err := findingsOf(it.Result); err != nil || f != want[i] {
			return false
		}
	}
	return true
}

// RunFleet measures horizontal scale: the same corpus of items pushed
// through fleets of every size in nodes — canaryd workers (single-
// threaded analyses) joined by gossip behind a canary-router that learns
// them the same way, all built from this module — with the findings of
// every item checked byte-identical against a direct in-process run. A
// concurrent identical-submission burst must cost its owner one
// analysis.
// The largest fleet of two or more workers then loses a shard owner to
// SIGKILL, and the router must fail over without changing a finding.
func (e *Experiments) RunFleet(spec workload.Spec, items int, nodes []int) (FleetResult, error) {
	if items <= 0 {
		items = 12
	}
	if len(nodes) == 0 {
		nodes = []int{1, 2, 4}
	}
	res := FleetResult{Lines: spec.Lines, Items: items, AllIdentical: true}

	base := workload.Generate(spec)
	e.logf("  fleet direct baseline: %d items\n", items)
	corpus, direct, err := paddedCorpus(base, "fleetpad", items)
	if err != nil {
		return res, err
	}
	tmp, err := os.MkdirTemp("", "canary-fleet-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildBinaries(tmp)
	if err != nil {
		return res, err
	}

	for i, n := range nodes {
		run, err := e.fleetSize(bins, n, i == len(nodes)-1, base, corpus, direct, &res)
		if err != nil {
			return res, err
		}
		res.AllIdentical = res.AllIdentical && run.Identical
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// fleetSize runs the corpus through one fleet of n workers; last marks
// the largest fleet, which also runs the dedup burst and the kill.
func (e *Experiments) fleetSize(bins binaries, n int, last bool, base string, corpus []api.AnalyzeItem, direct []string, res *FleetResult) (FleetNodeRun, error) {
	run := FleetNodeRun{Nodes: n}
	fl, err := newWorkerFleet(bins, n)
	if err != nil {
		return run, err
	}
	defer fl.kill()
	urls := fl.urls
	for i := range urls {
		if err := fl.start(i, nil, "-gossip-interval", fleetGossip.String(),
			"-workers", "1", "-max-concurrent", "1",
			"-queue-depth", strconv.Itoa(api.MaxBatchItems)); err != nil {
			return run, err
		}
	}
	router, err := fl.startRouter("-gossip-interval", fleetGossip.String())
	if err != nil {
		return run, err
	}
	defer router.kill()
	// The fleet has formed once the router holds every worker up and
	// every worker's own table lists all n alive.
	if err := waitWorkers(router.url, 15*time.Second, func(st map[string]string) bool {
		return countState(st, "up") == n
	}); err != nil {
		return run, gatef("%d-node fleet: %v", n, err)
	}
	for _, u := range urls {
		if waitGossip(u, fleetGossip, 15*time.Second, func(st map[string]string) bool {
			return countState(st, api.GossipAlive) == n
		}) < 0 {
			return run, gatef("%d-node fleet: worker %s never listed all %d workers alive", n, u, n)
		}
	}

	// Cold corpus through the router: every item completed, identical.
	hc := &http.Client{Timeout: 10 * time.Minute}
	t0 := time.Now()
	cold, err := postFleetBatch(hc, router.url, corpus)
	if err != nil {
		return run, err
	}
	run.ColdWall = time.Since(t0)
	run.ItemsPerSec = float64(len(corpus)) / run.ColdWall.Seconds()
	if cold.Completed != len(corpus) {
		return run, gatef("%d-node cold batch: %d of %d items completed", n, cold.Completed, len(corpus))
	}
	run.Identical = sameFindings(cold.Items, direct)
	e.logf("  fleet %d-node cold: %v (%.1f items/s, identical=%v)\n",
		n, run.ColdWall.Round(time.Millisecond), run.ItemsPerSec, run.Identical)

	// Warm repeat: every item served from its owner's cache, identical.
	t0 = time.Now()
	warm, err := postFleetBatch(hc, router.url, corpus)
	if err != nil {
		return run, err
	}
	run.WarmWall = time.Since(t0)
	for _, it := range warm.Items {
		if it.Cached {
			run.WarmCached++
		}
	}
	if run.WarmCached != len(corpus) {
		return run, gatef("%d-node warm batch: %d of %d items cache-served", n, run.WarmCached, len(corpus))
	}
	run.Identical = run.Identical && sameFindings(warm.Items, direct)

	for _, u := range urls {
		c, err := scrapeCounters(u, mAccepted)
		if err != nil {
			return run, err
		}
		run.AcceptedPerNode = append(run.AcceptedPerNode, int(c[mAccepted]))
	}

	// The router's ring, for picking the burst's owner and the victim.
	ring := fleet.NewRing(urls)
	if last {
		if err := e.dedupBurst(hc, router.url, ring, res); err != nil {
			return run, err
		}
	}
	if run.Router, err = scrapeRouterStats(router.url); err != nil {
		return run, err
	}
	if last && n >= 2 {
		victim := ring.Owner(canary.SubmissionKey(corpus[0].Source, fleetOptions()))
		for i, u := range urls {
			if u == victim {
				fl.procs[i].kill()
			}
		}
		ok, err := e.afterKill(hc, router.url, victim, ring, base, corpus, direct)
		if err != nil {
			return run, err
		}
		run.Identical = run.Identical && ok
	}
	if err := router.terminate(30 * time.Second); err != nil {
		return run, gatef("%d-node router shutdown: %v", n, err)
	}
	return run, nil
}

// dedupBurst fires a fresh key concurrently at the router, which
// forwards every copy to the key's owner: the owner's in-flight table is
// the fleet's one dedup layer, so the burst must cost it exactly one
// analysis (read from its /metrics before and after). The key is a slow
// program, so the copies arrive while its analysis runs; a fast one
// would let later copies hit the cache, and the gate would pass without
// any dedup layer.
func (e *Experiments) dedupBurst(hc *http.Client, routerURL string, ring *fleet.Ring, res *FleetResult) error {
	const burst = 6
	src := forkFan(100)
	owner := ring.Owner(canary.SubmissionKey(src, fleetOptions()))
	before, err := scrapeCounters(owner, mAnalyses, mCoalesced)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(api.AnalyzeRequest{Source: src})
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hc.Post(routerURL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	after, err := scrapeCounters(owner, mAnalyses, mCoalesced)
	if err != nil {
		return err
	}
	res.DedupBurst = burst
	res.OwnerAnalyses = after[mAnalyses] - before[mAnalyses]
	res.WorkerCoalesced = after[mCoalesced] - before[mCoalesced]
	e.logf("  fleet dedup burst: %d submissions, %d owner analyses, %d worker-coalesced\n",
		burst, res.OwnerAnalyses, res.WorkerCoalesced)
	if res.OwnerAnalyses != 1 {
		return gatef("dedup burst of %d identical submissions cost owner %s %d analyses, want 1",
			burst, owner, res.OwnerAnalyses)
	}
	return nil
}

// forkFan returns a program whose main forks n threads that each publish
// a freed cell into one shared object: n inter-thread use-after-free
// reports, and about 0.2 s of single-threaded analysis at n = 100.
func forkFan(n int) string {
	var b strings.Builder
	b.WriteString("func main() {\n  x = malloc();\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  fork(t%d, fan%d, x);\n", i, i)
	}
	b.WriteString("  c = *x;\n  print(*c);\n}\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "func fan%d(y) {\n  b = malloc();\n  *y = b;\n  free(b);\n}\n", i)
	}
	return b.String()
}

// afterKill resubmits the corpus plus a fresh item that the SIGKILLed
// victim owns. Every item must complete, the router must have failed
// over, and its gossip table must hold the victim suspect or dead; the
// result says whether the findings stayed byte-identical.
func (e *Experiments) afterKill(hc *http.Client, routerURL, victim string, ring *fleet.Ring, base string, corpus []api.AnalyzeItem, direct []string) (bool, error) {
	fresh, freshDirect, err := ownedItems(ring, victim, base, "fleetfresh", 1)
	if err != nil {
		return false, err
	}
	items := append(corpus[:len(corpus):len(corpus)], fresh...)
	after, err := postFleetBatch(hc, routerURL, items)
	if err != nil {
		return false, err
	}
	if after.Completed != len(items) {
		return false, gatef("post-kill batch: %d of %d items completed", after.Completed, len(items))
	}
	identical := sameFindings(after.Items, append(direct[:len(direct):len(direct)], freshDirect...))
	rs, err := scrapeRouterStats(routerURL)
	if err != nil {
		return false, err
	}
	if rs.Failovers == 0 {
		return false, gatef("router_failovers_total is 0 after killing %s", victim)
	}
	if waitGossip(routerURL, fleetGossip, 15*time.Second, func(st map[string]string) bool {
		return st[victim] == api.GossipSuspect || st[victim] == api.GossipDead
	}) < 0 {
		return false, gatef("killed worker %s never turned suspect or dead in the router's gossip table", victim)
	}
	e.logf("  fleet killed %s: %d failovers, victim down, identical=%v\n", victim, rs.Failovers, identical)
	return identical, nil
}

// PrintFleet renders the fleet experiment as a text table.
func PrintFleet(w io.Writer, res FleetResult) {
	fmt.Fprintf(w, "Fleet scale-out (%d items of ~%d lines, single-threaded workers)\n",
		res.Items, res.Lines)
	fmt.Fprintf(w, "%-6s %12s %10s %12s %14s %-18s %10s\n",
		"nodes", "cold", "items/s", "warm", "warm-cached", "accepted/node", "identical")
	for _, r := range res.Runs {
		fmt.Fprintf(w, "%-6d %12v %10.1f %12v %11d/%-2d %-18s %10v\n",
			r.Nodes, r.ColdWall.Round(time.Millisecond), r.ItemsPerSec,
			r.WarmWall.Round(time.Millisecond), r.WarmCached, res.Items,
			fmt.Sprint(r.AcceptedPerNode), r.Identical)
	}
	fmt.Fprintf(w, "dedup burst: %d identical submissions -> %d owner analyses, %d worker-coalesced\n",
		res.DedupBurst, res.OwnerAnalyses, res.WorkerCoalesced)
	fmt.Fprintf(w, "all findings identical to direct run: %v\n", res.AllIdentical)
}
