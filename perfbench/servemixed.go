package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/server"
	"canary/internal/workload"
)

// serveSpec is a fresh bug-dense program: many tp_/fpc_ bugs and traps
// with eight dereference sites per trap, so checking carries weight. The
// patterns fill ~2500 lines; the seeded filler after them is what makes
// programs of different seeds differ.
func serveSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "serve-mixed", Lines: 3000, Seed: seed,
		TruePositives: 16, CanaryFPs: 8, Fig2Traps: 32, OrderTraps: 16, LockTraps: 16, SaberTraps: 8, Fan: 8,
	}
}

// hotSetSize is the number of distinct programs the repeated part of the
// traffic draws from; after each one's first request they are cache hits.
const hotSetSize = 6

// setupSeed generates the program each set-up daemon answers first.
const setupSeed = -1

// serveTailP is the tail percentile of request CPU time: with two in
// five requests cheap hits, the p90 lies well inside the misses. The p95
// is still printed in the table.
const serveTailP = 0.90

// refEvery is the number of requests between two runs of the host
// reference job (hostRef): about a hundred runs in a 30-s run, so their
// median follows the host through the run.
const refEvery = 25

// serveMinRequests is the number of requests a run sends at least. The
// daemon's result cache and warm stores grow with every fresh program, so
// the peak heap is taken over exactly this many requests, a number that
// does not depend on how fast the host ran.
const serveMinRequests = 600

// hotShare is the share of requests drawn from the hot set. Hits and
// misses differ in latency by an order of magnitude, so at exactly one
// half the median would sit on the boundary between them and jump between
// the slowest hit and the fastest miss; at 0.4 it falls among the misses.
const hotShare = 0.4

// daemon is an in-process canaryd: internal/server behind a loopback
// net/http listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon(client *http.Client) (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		herr = err
	}
	if err := d.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

// request is one submission and what became of it. The body is built
// just before the request is sent and dropped once the answer is in, so
// the peak heap is the daemon's, plus one request.
type request struct {
	seed  int64
	fresh bool // first submission of this program
	body  []byte

	wall, cpu time.Duration // from send to the whole answer read
	status    int
	cached    bool
	elapsedMS float64
	reports   []canary.Report // kept for the traced replay of fresh programs only
	err       error
}

// build generates the request's program and its wire body.
func (r *request) build() error {
	body, err := json.Marshal(api.AnalyzeRequest{Source: workload.Generate(serveSpec(r.seed))})
	r.body = body
	return err
}

// serveMixed is a closed loop with one client over one connection to the
// in-process daemon: each request is sent when the previous answer is in.
// About two in five requests repeat a small hot set and read the result
// cache; the rest are fresh bug-dense programs. A request is timed from
// its send until its whole answer is read; building the body before and
// checking the findings after are not timed. Set-up is bringing a daemon
// up until /healthz answers and it has served its first analysis,
// repeated; the last daemon serves the run.
func serveMixed(cfg config) (*runResult, error) {
	res := &runResult{metrics: make(map[string]float64)}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()

	var ref hostRef
	var setups []float64
	var d *daemon
	for k := 0; k < setupRepeats; k++ {
		if err := ref.measure(); err != nil {
			return nil, err
		}
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		// One fixed program outside the mix: set-up leaves no hot-set
		// entry in the cache, and its cost does not vary with the seed.
		first := &request{seed: setupSeed}
		if err := first.build(); err != nil {
			return nil, err
		}
		w := startWatch()
		var err error
		if d, err = startDaemon(client); err != nil {
			return nil, err
		}
		send(client, d.url, first)
		_, cpu := w.elapsed()
		setups = append(setups, cpu.Seconds())
		if first.err == nil {
			first.err = checkFindings(first.reports, seededBugs(serveSpec(setupSeed)))
		}
		res.record(first.err)
	}
	defer d.stop()

	runtime.GC()
	idleMB := float64(heapBytes()) / (1 << 20)
	heap := startHeapSampler()
	defer heap.Stop()
	reqs, peakMB, err := runClosedLoop(cfg, d, client, heap, &ref)
	if err != nil {
		return nil, err
	}

	var cpu, wall, hitCPU, hitWall, wire, job []float64
	var rejected, cacheHits, cacheMisses int
	var busyCPU, busyWall time.Duration
	for _, r := range reqs {
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		res.record(r.err)
		if r.err != nil {
			continue
		}
		cpu = append(cpu, ms(r.cpu))
		wall = append(wall, ms(r.wall))
		busyCPU += r.cpu
		busyWall += r.wall
		wire = append(wire, ms(r.wall)-r.elapsedMS)
		if r.cached {
			cacheHits++
			hitCPU = append(hitCPU, ms(r.cpu))
			hitWall = append(hitWall, ms(r.wall))
		} else {
			cacheMisses++
			job = append(job, r.elapsedMS)
		}
	}

	k := ref.scale()
	res.add("setup_norm_s", "setup_s", "s", median(setups)*k, fmt.Sprintf("median of %d start-ups to a first answer", len(setups)))
	res.addQuantile("request_norm_ms_p50", "op_norm_ms_median", Percentile(cpu, 0.5).Scaled(k))
	res.addQuantile("request_norm_ms_p90", "op_norm_ms_tail", Percentile(cpu, serveTailP).Scaled(k))
	res.addQuantile("request_norm_ms_p95", "", Percentile(cpu, 0.95).Scaled(k))
	res.addQuantile("hit_norm_ms_p50", "fast_norm_ms_median", Percentile(hitCPU, 0.5).Scaled(k))
	res.add("served_per_norm_s", "throughput_per_norm_s", "1/s", float64(len(cpu))/busyCPU.Seconds()/k, fmt.Sprintf("n=%d requests", len(cpu)))
	ref.report(res)
	res.addQuantile("request_cpu_ms_p50", "", Percentile(cpu, 0.5))
	res.addQuantile("request_ms_p50", "", Percentile(wall, 0.5))
	res.addQuantile("request_ms_p90", "", Percentile(wall, serveTailP))
	res.addQuantile("hit_ms_p50", "", Percentile(hitWall, 0.5))
	res.addQuantile("miss_service_ms_p50", "", Percentile(job, 0.5))
	res.add("served_per_s", "", "1/s", float64(len(wall))/busyWall.Seconds(), "requests per second of wall time")
	res.add("idle_heap_mb", "", "MB", idleMB, "after set-up and GC, before the loop")
	res.add("peak_heap_mb", "peak_heap_mb", "MB", peakMB, fmt.Sprintf("over the first %d requests", serveMinRequests))
	res.metrics["server.wire_ms"] = mean(wire)
	res.metrics["server.job_ms"] = mean(job)
	res.metrics["server.cache_hits"] = float64(cacheHits)
	res.metrics["server.cache_misses"] = float64(cacheMisses)
	res.metrics["server.rejected"] = float64(rejected)

	if cfg.traced {
		if err := replayMisses(cfg, res, reqs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runClosedLoop sends the seeded request mix one at a time for
// --seconds, and at least serveMinRequests: each request is, with odds
// hotShare, one of the hot programs, and otherwise a fresh program never
// sent before. It returns the requests sent and the peak heap over the
// first serveMinRequests.
func runClosedLoop(cfg config, d *daemon, client *http.Client, heap *heapSampler, ref *hostRef) ([]*request, float64, error) {
	rnd := rand.New(rand.NewSource(cfg.seed))
	seen := make([]bool, hotSetSize)
	var reqs []*request
	var peakMB float64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || i < serveMinRequests; i++ {
		r := &request{seed: cfg.seed*1_000_000 + int64(hotSetSize+i), fresh: true}
		if rnd.Float64() < hotShare {
			h := rnd.Intn(hotSetSize)
			r.seed, r.fresh = cfg.seed*1_000_000+int64(h), !seen[h]
			seen[h] = true
		}
		if i%refEvery == 0 {
			if err := ref.measure(); err != nil {
				return nil, 0, err
			}
		}
		if err := r.build(); err != nil {
			return nil, 0, err
		}
		send(client, d.url, r)
		r.body = nil
		if r.err == nil {
			r.err = checkFindings(r.reports, seededBugs(serveSpec(r.seed)))
		}
		if !cfg.traced || !r.fresh {
			r.reports = nil
		}
		reqs = append(reqs, r)
		if len(reqs) == serveMinRequests {
			peakMB = heap.takePeakMB()
		}
	}
	return reqs, peakMB, nil
}

// send posts one synchronous analysis, timing it from the send until the
// whole answer is read, and decodes its findings.
func send(client *http.Client, url string, r *request) {
	w := startWatch()
	resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	r.wall, r.cpu = w.elapsed()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		r.err = err
		return
	}
	var result struct{ Reports []canary.Report }
	if err := json.Unmarshal(jr.Result, &result); err != nil {
		r.err = fmt.Errorf("decoding result: %w", err)
		return
	}
	r.cached, r.elapsedMS, r.reports = jr.Cached, jr.Elapsed, result.Reports
}

// replayMisses is serve-mixed's traced half. Replaying inside the loop
// would be charged to the requests' CPU time, so after it ends each program
// the server computed (in arrival order, for up to --seconds) is analyzed
// twice in-process: once through a warm canary.Session like the daemon's
// (untraced reference) and once through the layer-by-layer replay with
// its own warm stores. Both must match each other and the served answer.
func replayMisses(cfg config, res *runResult, reqs []*request) error {
	sp := newSpine(NewRecorder(), true)
	ref := canary.NewSession()
	opt := canary.DefaultOptions()
	var refMS []float64
	start := time.Now()
	for _, r := range reqs {
		if time.Since(start) > cfg.seconds {
			break
		}
		if !r.fresh || r.err != nil {
			continue
		}
		src := workload.Generate(serveSpec(r.seed))
		t0 := time.Now()
		want, err := ref.Analyze(src, opt)
		refMS = append(refMS, ms(time.Since(t0)))
		if err == nil {
			var replay []canary.Report
			if replay, err = sp.open(len(refMS), src); err == nil {
				err = checkReplay(want.Reports, replay)
			}
			if err == nil {
				err = checkReplay(r.reports, replay)
			}
		}
		res.record(err)
	}
	return finishTrace(cfg, "serve-mixed", res, sp, refMS)
}
