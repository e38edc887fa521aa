// Command canaryd runs Canary as a long-running analysis service: a JSON
// HTTP API over a bounded job queue, a fixed-size pool of concurrent
// analyses, and a content-addressed result cache keyed by the SHA-256 of
// (canonicalized source, options). Repeated submissions are served from
// the cache byte-identically to their cold run; the guard interner and
// the per-function summary store stay warm across requests.
//
// Usage:
//
//	canaryd [flags]
//
// Endpoints:
//
//	POST /v1/analyze   {"source": "...", "options": {...}, "async": false, "timeout_ms": 0}
//	GET  /v1/jobs/{id} status and result of an async job
//	POST /v1/sessions  open a long-lived edit session: {"source": "...",
//	                   "options": {...}, "session_id": "...", "ttl_seconds": 0}
//	POST /v1/sessions/{id}/edits   apply line-span edits, get the findings delta
//	GET  /v1/sessions/{id}/findings  current findings snapshot
//	DELETE /v1/sessions/{id}       close the session
//	POST /v1/gossip    membership exchange (with -join; GET returns the table)
//	GET  /healthz      200 "ok", or 503 "draining" during shutdown
//	GET  /metrics      plain-text counters and per-stage latency histograms
//	                   (one canaryd_stage_latency_seconds series per pipeline
//	                   registry stage — parse, lower, pta, datadep,
//	                   interference, mhp, vfg, check — plus "total")
//
// On SIGTERM or SIGINT the daemon drains: every admitted job — queued or
// running — completes and stays pollable until the drain finishes, new
// submissions get 503, then the process exits 0. The first stdout line is
// always "canaryd listening on <addr>", so wrappers can bind -addr :0 and
// scrape the chosen port.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8787", "listen address (use :0 for a random port)")
		maxConc    = flag.Int("max-concurrent", 0, "analyses run simultaneously (0 = max(2, NumCPU/4))")
		queueDepth = flag.Int("queue-depth", 64, "bound on admitted-but-unstarted jobs")
		jobTimeout = flag.Duration("job-timeout", 60*time.Second, "per-job analysis deadline cap")
		cacheSize  = flag.Int("cache-entries", 4096, "content-addressed result cache capacity (in-memory tier)")
		cacheDir   = flag.String("cache-dir", "", "spill the warm state (results, summaries) to a content-addressed disk store rooted here; a restarted daemon starts warm")
		cacheBytes = flag.Int64("cache-max-bytes", 0, "disk store size cap in bytes; least-recently-accessed entries are evicted past it (0 = 1 GiB; needs -cache-dir)")
		workers    = flag.Int("workers", 0, "per-analysis worker pool size (0 = all CPUs)")
		drainWait  = flag.Duration("drain-timeout", 10*time.Minute, "bound on draining in-flight jobs at shutdown")
		maxBody    = flag.Int64("max-request-bytes", 0, "largest accepted /v1/analyze body in bytes (0 = 16 MiB); oversized requests get 413")
		stageWait  = flag.Duration("stage-timeout", 0, "wall-clock bound per analysis stage (build, check); 0 disables (daemon-only; step budgets stay deterministic)")
		maxRounds  = flag.Int("max-fixpoint-rounds", 0, "step budget: VFG fixpoint rounds before degrading to inconclusive (0 = unlimited)")
		maxSteps   = flag.Int("max-dfs-steps", 0, "step budget: source-sink DFS steps per checker (0 = unlimited)")
		maxNodes   = flag.Int("max-formula-nodes", 0, "step budget: guard formula nodes per query before eliding (0 = unlimited)")
		nodeID     = flag.String("node-id", "", "node identity reported by /healthz (defaults to the listen address)")
		join       = flag.String("join", "", "comma-separated membership seed URLs: gossip with them so that routers joining the same fleet learn this worker")
		advertise  = flag.String("advertise", "", "this node's base URL as other members reach it (default http://<bound addr>; needs -join)")
		gossipWait = flag.Duration("gossip-interval", 500*time.Millisecond, "membership heartbeat period (suspect after 5x, dead after 10x)")
		maxSess    = flag.Int("max-sessions", 0, "live edit sessions held at once (0 = 256); at the cap the oldest idle session is evicted, or the open gets 503")
		sessTTL    = flag.Duration("session-idle-ttl", 0, "idle time after which a live session is evicted (0 = 10m)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: canaryd [flags]")
		flag.PrintDefaults()
		return 2
	}

	opt := canary.DefaultOptions()
	opt.Workers = *workers
	opt.Budgets = canary.Budgets{
		MaxFixpointRounds: *maxRounds,
		MaxDFSSteps:       *maxSteps,
		MaxFormulaNodes:   *maxNodes,
	}

	// Listen before building the server so the node identity can default
	// to the actual bound address (meaningful under -addr :0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}
	id := *nodeID
	if id == "" {
		id = ln.Addr().String()
	}
	var joinList []string
	adv := *advertise
	if *join != "" {
		for _, j := range strings.Split(*join, ",") {
			if j = strings.TrimSpace(j); j != "" {
				joinList = append(joinList, j)
			}
		}
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
	}

	srv, err := server.New(server.Config{
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		CacheEntries:    *cacheSize,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheBytes,
		MaxRequestBytes: *maxBody,
		StageTimeout:    *stageWait,
		Options:         opt,
		NodeID:          id,
		Join:            joinList,
		Advertise:       adv,
		GossipInterval:  *gossipWait,
		MaxSessions:     *maxSess,
		SessionIdleTTL:  *sessTTL,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}
	fmt.Printf("canaryd listening on %s\n", ln.Addr())

	hs := api.NewServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	case <-ctx.Done():
	}
	stop()

	// Drain: refuse new work (503) but keep serving polls and metrics until
	// every admitted job completes, then stop the HTTP listener.
	fmt.Fprintln(os.Stderr, "canaryd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "canaryd: drain incomplete:", err)
		hs.Close()
		return 2
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}
	fmt.Fprintln(os.Stderr, "canaryd: drained, exiting")
	return 0
}
