// Command canary-router is the stateless front door of a canaryd fleet:
// it consistent-hashes every submission's content address across the
// workers it knows, forwards to the owner node, and fails over down the
// ring when a worker errors or times out. Identical concurrent
// submissions meet at their owner, which runs them as one analysis. It
// holds no durable state — any number of routers can front the same
// fleet, and restarting one loses nothing.
//
// Usage:
//
//	canary-router -join http://host1:8787,http://host2:8787 [flags]
//
// The router gossips with the seed URLs, learns the worker set from the
// membership protocol, and rebuilds its ring on every change — workers
// can die, restart, and scale without touching the router; a suspect
// (or quiet) member is reported down and tried last, a dead one leaves
// the ring.
//
// Endpoints:
//
//	POST /v1/analyze   the canaryd contract, single or batch form
//	                   (async refused: job IDs are per-worker)
//	POST /v1/gossip    membership exchange (GET returns the table)
//	GET  /healthz      router liveness + per-worker up/down,
//	                   machine-readable with ?format=json
//	GET  /metrics      plain-text router_* counters
//
// The first stdout line is always "canary-router listening on <addr>",
// so wrappers can bind -addr :0 and scrape the chosen port.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"canary/internal/fleet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8786", "listen address (use :0 for a random port)")
		join       = flag.String("join", "", "comma-separated membership seed URLs (canaryd base URLs; required)")
		advertise  = flag.String("advertise", "", "this router's base URL as members reach it (default http://<bound addr>)")
		gossipWait = flag.Duration("gossip-interval", 500*time.Millisecond, "membership heartbeat period (suspect after 5x, dead after 10x)")
		maxBody    = flag.Int64("max-request-bytes", 0, "largest accepted /v1/analyze body in bytes (0 = 16 MiB)")
		attempts   = flag.Int("max-attempts", 3, "workers one submission may be offered to before 502")
		backoff    = flag.Duration("retry-backoff", 25*time.Millisecond, "base delay between failover attempts (jittered ±50%)")
		timeout    = flag.Duration("timeout", 5*time.Minute, "bound on one upstream call")
		seed       = flag.Int64("seed", 1, "jitter seed; pin for reproducible failover schedules")
	)
	flag.Parse()
	var joinList []string
	for _, j := range strings.Split(*join, ",") {
		if j = strings.TrimSpace(j); j != "" {
			joinList = append(joinList, j)
		}
	}
	if flag.NArg() != 0 || len(joinList) == 0 {
		fmt.Fprintln(os.Stderr, "usage: canary-router -join url,url,... [flags]")
		flag.PrintDefaults()
		return 2
	}

	// Listen before building the router so the advertised identity can
	// default to the actual bound address (meaningful under -addr :0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	}
	adv := *advertise
	if adv == "" {
		adv = "http://" + ln.Addr().String()
	}

	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Join:            joinList,
		Self:            adv,
		GossipInterval:  *gossipWait,
		MaxRequestBytes: *maxBody,
		MaxAttempts:     *attempts,
		RetryBackoff:    *backoff,
		Timeout:         *timeout,
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		ln.Close()
		return 2
	}
	defer rt.Close()
	fmt.Printf("canary-router listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	case <-ctx.Done():
	}
	stop()

	httpCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	}
	fmt.Fprintln(os.Stderr, "canary-router: exiting")
	return 0
}
