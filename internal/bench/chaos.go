package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"canary/internal/api"
	"canary/internal/fleet"
	"canary/internal/workload"
)

// ChaosRound is one scripted failure scenario: the corpus streamed
// through the router while the fleet is being hurt, with the client
// allowed at most one retry per item.
type ChaosRound struct {
	Name  string `json:"name"`
	Items int    `json:"items"`
	// Succeeded items answered with findings byte-identical to the
	// direct run; Divergent items answered but with different bytes;
	// Lost items failed even after the retry budget.
	Succeeded int `json:"succeeded"`
	Divergent int `json:"divergent"`
	Lost      int `json:"lost"`
	// Retries counts retryable errors the client absorbed (each item
	// gets at most one).
	Retries int `json:"retries"`
	// Identical: every answered item matched the direct findings.
	Identical bool `json:"identical"`
	// ConvergeHeartbeats is how many gossip intervals the round's
	// membership event took to show in the router's gossip table.
	ConvergeHeartbeats float64       `json:"converge_heartbeats"`
	Wall               time.Duration `json:"wall_ns"`
}

// ChaosResult is the chaos experiment: a dynamic-membership fleet
// under scripted SIGKILL / restart / SIGSTOP / failpoint-storm rounds,
// proving findings stay byte-identical and no request is silently
// lost. On a single-CPU host the signal is convergence and identity,
// never throughput.
type ChaosResult struct {
	Lines          int           `json:"lines"`
	Items          int           `json:"items"`
	Workers        int           `json:"workers"`
	GossipInterval time.Duration `json:"gossip_interval_ns"`
	Rounds         []ChaosRound  `json:"rounds"`
	// The hard gates.
	AllIdentical bool `json:"all_identical"`
	NoneLost     bool `json:"none_lost"`
	// Converged: every membership event reached the router's gossip
	// table within the heartbeat bound.
	Converged      bool    `json:"converged"`
	HeartbeatBound float64 `json:"heartbeat_bound"`
	// PauseBatchPrompt: the batch posted at a frozen owner completed
	// within PauseBatchBound, well under the router's upstream timeout —
	// its group left the owner once the router saw it quiet, instead of
	// waiting the timeout out.
	PauseBatchPrompt bool              `json:"pausebatch_prompt"`
	PauseBatchBound  time.Duration     `json:"pausebatch_bound_ns"`
	SuspectObserved  bool              `json:"suspect_observed"`
	RouterStats      fleet.RouterStats `json:"router"`
}

// chaosHeartbeatBound is how many gossip intervals a membership event
// may take to reach the router's gossip table before the experiment
// fails. Death detection alone costs DeadAfter = 10 intervals; the bound
// leaves slack for scheduling noise on a loaded single-CPU host, while
// still catching a protocol that converges by accident of timeouts.
const chaosHeartbeatBound = 120

// streamOne submits one single-item request through the router with a
// budget of exactly one retry: a retryable answer (transport error,
// 502, 503, 504) is retried once after honoring Retry-After; a second
// failure is a lost item. Returns the findings, how many retries were
// spent, and whether the item was lost.
func streamOne(hc *http.Client, routerURL, src string) (findings string, retries int, lost bool) {
	body, _ := json.Marshal(api.AnalyzeRequest{Source: src})
	for attempt := 0; attempt < 2; attempt++ {
		resp, err := hc.Post(routerURL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			if attempt == 0 {
				retries++
				time.Sleep(250 * time.Millisecond)
				continue
			}
			return "", retries, true
		}
		respBody, readErr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		retryable := readErr != nil ||
			resp.StatusCode == http.StatusBadGateway ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout
		if retryable {
			if attempt == 0 {
				retries++
				wait := 250 * time.Millisecond
				if ra := resp.Header.Get("Retry-After"); ra != "" {
					if d, err := time.ParseDuration(ra + "s"); err == nil && d > 0 && d < 5*time.Second {
						wait = d
					}
				}
				time.Sleep(wait)
				continue
			}
			return "", retries, true
		}
		if resp.StatusCode != http.StatusOK {
			// A non-retryable refusal (4xx) of a valid source is a lost
			// item: the harness only submits well-formed programs.
			return "", retries, true
		}
		var jr api.JobResponse
		if err := json.Unmarshal(respBody, &jr); err != nil || jr.Status != "done" {
			return "", retries, true
		}
		f, err := findingsOf(jr.Result)
		if err != nil {
			return "", retries, true
		}
		return f, retries, false
	}
	return "", retries, true
}

// tally counts one answered item: lost, or findings f against want.
func (r *ChaosRound) tally(f, want string, lost bool) {
	switch {
	case lost:
		r.Lost++
	case f != want:
		r.Divergent++
		r.Identical = false
	default:
		r.Succeeded++
	}
}

// streamCorpus runs the whole corpus through the router, comparing
// every answer against the direct baseline.
func streamCorpus(hc *http.Client, routerURL string, corpus []api.AnalyzeItem, direct []string) ChaosRound {
	r := ChaosRound{Items: len(corpus), Identical: true}
	t0 := time.Now()
	for i, it := range corpus {
		f, retries, lost := streamOne(hc, routerURL, it.Source)
		r.Retries += retries
		r.tally(f, direct[i], lost)
	}
	r.Wall = time.Since(t0)
	return r
}

// waitGossip polls the router's GET /v1/gossip table until pred holds
// over its worker ID → state map, returning the wait in gossip
// heartbeats (-1 on timeout).
func waitGossip(routerURL string, gossip, timeout time.Duration, pred func(map[string]string) bool) float64 {
	t0 := time.Now()
	for time.Since(t0) < timeout {
		var gr api.GossipResponse
		if resp, err := http.Get(routerURL + "/v1/gossip"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&gr)
			resp.Body.Close()
			states := map[string]string{}
			for _, m := range gr.Members {
				if m.Role == api.RoleWorker {
					states[m.ID] = m.State
				}
			}
			if err == nil && pred(states) {
				return float64(time.Since(t0)) / float64(gossip)
			}
		}
		time.Sleep(gossip / 4)
	}
	return -1
}

// RunChaos runs the chaos experiment: canaryd workers joined by gossip
// alone, a canary-router that learns the fleet the same way (both built
// from this module), and scripted rounds — baseline, SIGKILL,
// restart-rejoin, SIGSTOP/SIGCONT, a batch posted the instant a worker
// is SIGSTOPped, and a failpoint storm — each submitting the corpus and
// asserting byte-identity against a direct library run. The healed
// fleet must end with every worker up and the router must shut down
// cleanly on SIGTERM.
func (e *Experiments) RunChaos(spec workload.Spec, items, workers int, gossip time.Duration) (ChaosResult, error) {
	if items <= 0 {
		items = 10
	}
	if workers < 3 {
		workers = 3
	}
	if gossip <= 0 {
		gossip = 150 * time.Millisecond
	}
	res := ChaosResult{
		Lines: spec.Lines, Items: items, Workers: workers,
		GossipInterval: gossip, HeartbeatBound: chaosHeartbeatBound,
		PauseBatchBound: pauseBatchBound,
		AllIdentical:    true, NoneLost: true, Converged: true,
	}

	base := workload.Generate(spec)
	corpus, direct, err := paddedCorpus(base, "chaospad", items)
	if err != nil {
		return res, err
	}
	tmp, err := os.MkdirTemp("", "canary-chaos-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildBinaries(tmp)
	if err != nil {
		return res, err
	}

	// Fixed worker addresses and persistent cache dirs: a restarted
	// worker reuses both, which is what makes rejoin-warm real.
	fl, err := newWorkerFleet(bins, workers)
	if err != nil {
		return res, err
	}
	defer fl.kill()
	seeds, procs := fl.urls, fl.procs
	start := func(i int, env ...string) error {
		return fl.start(i, env, "-gossip-interval", gossip.String(),
			"-cache-dir", filepath.Join(tmp, fmt.Sprintf("w%d", i)),
			"-workers", "1", "-max-concurrent", "1")
	}
	for i := range procs {
		if err := start(i); err != nil {
			return res, err
		}
	}

	// The router knows nothing but the seeds: its whole worker set must
	// arrive through gossip.
	router, err := fl.startRouter("-gossip-interval", gossip.String(),
		"-retry-backoff", "25ms", "-timeout", "8s")
	if err != nil {
		return res, err
	}
	defer router.kill()
	hc := &http.Client{Timeout: 2 * time.Minute}
	wait := func(id, state string) float64 {
		return waitGossip(router.url, gossip, 60*time.Second, func(st map[string]string) bool {
			return st[id] == state
		})
	}

	record := func(name string, r ChaosRound, hb float64) {
		r.Name = name
		r.ConvergeHeartbeats = hb
		res.Rounds = append(res.Rounds, r)
		if !r.Identical {
			res.AllIdentical = false
		}
		if r.Lost > 0 {
			res.NoneLost = false
		}
		if hb < 0 || hb > chaosHeartbeatBound {
			res.Converged = false
		}
		e.logf("  chaos %-10s %d/%d ok, %d retries, %d lost, identical=%v, converge=%.1f heartbeats, %v\n",
			name, r.Succeeded, r.Items, r.Retries, r.Lost, r.Identical, hb, r.Wall.Round(time.Millisecond))
	}

	// Round 0 — baseline: the router must first learn all workers alive
	// from gossip alone, then the corpus streams clean.
	hb := waitGossip(router.url, gossip, 30*time.Second, func(st map[string]string) bool {
		return countState(st, api.GossipAlive) == workers
	})
	if hb < 0 {
		return res, gatef("router never learned the %d-worker fleet", workers)
	}
	record("baseline", streamCorpus(hc, router.url, corpus, direct), hb)

	// Round 1 — SIGKILL: a worker dies mid-corpus with no goodbye. The
	// stream must survive on failover; the router must then see it dead.
	procs[1].kill()
	round := streamCorpus(hc, router.url, corpus, direct)
	record("sigkill", round, wait(seeds[1], api.GossipDead))

	// Round 2 — rejoin: the same identity restarts (incarnation 0, warm
	// disk store) and must refute its own death and retake its shard.
	if err := start(1); err != nil {
		return res, fmt.Errorf("rejoin respawn: %w", err)
	}
	hb = wait(seeds[1], api.GossipAlive)
	record("rejoin", streamCorpus(hc, router.url, corpus, direct), hb)

	// Round 3 — pause: SIGSTOP exercises the suspect state (silent but
	// not dead: stays in the ring, tried last). After SIGCONT direct
	// contact must resurrect it without a restart.
	procs[2].signal(syscall.SIGSTOP)
	res.SuspectObserved = wait(seeds[2], api.GossipSuspect) >= 0
	round = streamCorpus(hc, router.url, corpus, direct)
	procs[2].signal(syscall.SIGCONT)
	record("pause", round, wait(seeds[2], api.GossipAlive))

	// Round 4 — pausebatch: a worker is SIGSTOPped and one batch is posted
	// at once, before gossip can suspect it: the corpus plus fresh items
	// the frozen worker owns. The router's fan-out must still complete
	// every item byte-identical, with no client retry at all.
	fresh, freshDirect, err := ownedItems(fleet.NewRing(seeds), seeds[2], base, "chaosfresh", pauseBatchFresh)
	if err != nil {
		return res, err
	}
	procs[2].signal(syscall.SIGSTOP)
	round, err = postBatchRound(hc, router.url,
		append(corpus[:len(corpus):len(corpus)], fresh...),
		append(direct[:len(direct):len(direct)], freshDirect...))
	procs[2].signal(syscall.SIGCONT)
	if err != nil {
		return res, err
	}
	res.PauseBatchPrompt = round.Wall < pauseBatchBound
	record("pausebatch", round, wait(seeds[2], api.GossipAlive))

	// Round 5 — failpoint storm: a worker restarts with its peer-cache
	// and disk-store sites injecting intermittent faults. Degradation
	// paths (peer miss → local compute, disk miss → recompute) must
	// keep the findings byte-identical.
	procs[0].kill()
	storm := "CANARY_FAILPOINTS=peer-fetch=error@2;disk-read=error@2;disk-write=error@3;cache-read=error@5"
	if err := start(0, storm); err != nil {
		return res, fmt.Errorf("storm respawn: %w", err)
	}
	hb = wait(seeds[0], api.GossipAlive)
	record("storm", streamCorpus(hc, router.url, corpus, direct), hb)

	// The healed fleet: every worker back up in the router's health view,
	// which the router reads from its membership table.
	if err := waitWorkers(router.url, 30*time.Second, func(st map[string]string) bool {
		return countState(st, "up") == workers
	}); err != nil {
		return res, gatef("healed fleet: %v", err)
	}
	if res.RouterStats, err = scrapeRouterStats(router.url); err != nil {
		return res, err
	}
	if err := router.terminate(30 * time.Second); err != nil {
		return res, gatef("router shutdown: %v", err)
	}
	return res, nil
}

// pauseBatchBound bounds the pausebatch round's wall time. The router
// runs with -timeout 8s; the frozen owner turns quiet once a gossip
// exchange of the router's has gone unanswered for half the 1-s
// exchange timeout (the router reaches each of three workers within two
// 150-ms rounds), and its items then complete elsewhere.
const pauseBatchBound = 2 * time.Second

// pauseBatchFresh is how many never-seen items the pausebatch round adds
// for the paused worker to own, so its shard of the batch is real work
// that no cache anywhere in the fleet can answer.
const pauseBatchFresh = 2

// postBatchRound posts items as one batch through the router, with no
// retry, and tallies the answers against want.
func postBatchRound(hc *http.Client, routerURL string, items []api.AnalyzeItem, want []string) (ChaosRound, error) {
	r := ChaosRound{Items: len(items), Identical: true}
	t0 := time.Now()
	br, err := postFleetBatch(hc, routerURL, items)
	r.Wall = time.Since(t0)
	if err != nil {
		return r, gatef("batch round: %v", err)
	}
	if len(br.Items) != len(items) {
		return r, gatef("batch round: %d answers for %d items", len(br.Items), len(items))
	}
	for i, it := range br.Items {
		f, err := findingsOf(it.Result)
		r.tally(f, want[i], it.Status != "done" || err != nil)
	}
	return r, nil
}

// PrintChaos renders the chaos experiment as a text table.
func PrintChaos(w io.Writer, res ChaosResult) {
	fmt.Fprintf(w, "Chaos (%d workers, %d items of ~%d lines, gossip %v)\n",
		res.Workers, res.Items, res.Lines, res.GossipInterval)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %10s %12s %10s\n",
		"round", "ok", "retries", "lost", "identical", "converge(hb)", "wall")
	for _, r := range res.Rounds {
		fmt.Fprintf(w, "%-10s %5d/%-2d %8d %8d %10v %12.1f %10v\n",
			r.Name, r.Succeeded, r.Items, r.Retries, r.Lost, r.Identical,
			r.ConvergeHeartbeats, r.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "suspect state observed under pause: %v\n", res.SuspectObserved)
	fmt.Fprintf(w, "forwards=%d failovers=%d\n",
		res.RouterStats.Forwards, res.RouterStats.Failovers)
	fmt.Fprintf(w, "gates: identical=%v none-lost=%v converged=%v (bound %.0f heartbeats) pausebatch-prompt=%v (bound %v)\n",
		res.AllIdentical, res.NoneLost, res.Converged, res.HeartbeatBound, res.PauseBatchPrompt, res.PauseBatchBound)
}
