// Command canary-bench regenerates the paper's evaluation tables and
// figures over the synthetic subject catalogue:
//
//	canary-bench -experiment fig7a    # VFG construction time (Fig. 7a)
//	canary-bench -experiment fig7b    # VFG construction memory (Fig. 7b)
//	canary-bench -experiment fig8     # Canary scalability + linear fits (Fig. 8)
//	canary-bench -experiment table1   # bug-hunting comparison (Table 1)
//	canary-bench -experiment parallel # worker-pool sweep
//	canary-bench -experiment serve    # built canaryd: cold/warm result-store phases, daemon == CLI, 413, 503 + Retry-After, SIGTERM drain
//	canary-bench -experiment incremental # one-edit re-analysis: warm reuse counters, warm == cold
//	canary-bench -experiment persist  # warm restarts: fresh-process cold vs disk-warm reuse, hit counts, store size
//	canary-bench -experiment fleet    # horizontal scale: N canaryd processes behind canary-router, throughput, peer cache tier, dedup, routing invariance, kill-a-worker failover
//	canary-bench -experiment chaos    # self-healing: gossip-joined canaryd fleet under SIGKILL/restart/SIGSTOP/failpoint rounds, byte-identity and convergence gates
//	canary-bench -experiment sessions # built canaryd: live-session deltas, reanalysis counter gates, fold identity, refusals, TTL eviction
//	canary-bench -experiment all
//
// -json replaces the text tables with one JSON object holding the raw
// measurements of the selected experiments. A broken gate of the serve,
// sessions, incremental, persist, fleet or chaos experiment
// exits 1; any other error exits 2. Latency claims belong to perfbench's
// workloads, not to these experiments.
//
// Subject sizes and the per-tool timeout are scaled-down stand-ins for the
// paper's testbed (see DESIGN.md); -scale and -timeout control them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"canary/internal/bench"
	"canary/internal/workload"
)

// experiments names every experiment -experiment accepts besides "all";
// the flag's help text and the unknown-name check both derive from it.
var experiments = []string{"fig7a", "fig7b", "fig8", "table1", "parallel", "serve", "incremental", "persist", "fleet", "chaos", "sessions"}

func main() {
	var (
		experiment = flag.String("experiment", "all", strings.Join(append(experiments, "all"), " | "))
		scale      = flag.Float64("scale", 0.004, "lines per project LoC (subject size scale)")
		subjects   = flag.Int("subjects", 20, "how many catalogue subjects to run (prefix)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-baseline timeout (the paper's 12h, scaled)")
		sweepN     = flag.Int("sweep", 6, "number of Fig. 8 sweep points")
		sweepMin   = flag.Int("sweep-min", 500, "smallest Fig. 8 subject (lines)")
		sweepMax   = flag.Int("sweep-max", 16000, "largest Fig. 8 subject (lines)")
		parLines   = flag.Int("parallel-lines", 3200, "subject size for the parallel worker sweep")
		srvClients = flag.Int("serve-clients", 8, "concurrent submitters in the serve experiment")
		srvPerCli  = flag.Int("serve-requests", 6, "requests per submitter in the serve experiment")
		srvLines   = flag.Int("serve-lines", 400, "subject size for the serve experiment")
		incrLines  = flag.Int("incr-lines", 2600, "subject size for the incremental experiment")
		perLines   = flag.Int("persist-lines", 2600, "subject size for the persist experiment")
		childDir   = flag.String("persist-dir", "", "internal: warm-state directory of a -persist-child run")
		childSrc   = flag.String("persist-src", "", "internal: subject file of a -persist-child run")
		childMode  = flag.Bool("persist-child", false, "internal: run one analysis through a persistent session and print its report as JSON (used by -experiment persist to get fresh processes)")
		flLines    = flag.Int("fleet-lines", 1600, "subject size for the fleet experiment")
		flItems    = flag.Int("fleet-items", 12, "corpus items in the fleet experiment")
		flNodes    = flag.String("fleet-nodes", "1,2,4", "comma-separated fleet sizes to sweep")
		chLines    = flag.Int("chaos-lines", 300, "subject size for the chaos experiment")
		chItems    = flag.Int("chaos-items", 10, "corpus items streamed per chaos round")
		chWorkers  = flag.Int("chaos-workers", 3, "worker processes in the chaos fleet")
		chGossip   = flag.Duration("chaos-gossip", 150*time.Millisecond, "membership heartbeat of the chaos fleet")
		seLines    = flag.Int("sessions-lines", 2600, "subject size for the sessions experiment")
		seEdits    = flag.Int("sessions-edits", 9, "edit rounds in the sessions experiment (2:1 representation-only:semantic save mix)")
		jsonOut    = flag.Bool("json", false, "emit the raw measurements as JSON instead of text tables")
		verbose    = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	if *childMode {
		os.Exit(bench.RunPersistChild(*childDir, *childSrc))
	}

	e := &bench.Experiments{Timeout: *timeout}
	if *verbose {
		e.Out = os.Stderr
	}

	want := func(names ...string) bool {
		for _, n := range names {
			if *experiment == n {
				return true
			}
		}
		return *experiment == "all"
	}
	if !want(experiments...) {
		fmt.Fprintf(os.Stderr, "canary-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	// Collected measurements; only the selected experiments are non-nil.
	out := struct {
		Subjects    []bench.SubjectResult    `json:"subjects,omitempty"`
		Fig8        *bench.Fig8Result        `json:"fig8,omitempty"`
		Parallel    *bench.ParallelResult    `json:"parallel,omitempty"`
		Serve       *bench.ServeResult       `json:"serve,omitempty"`
		Incremental *bench.IncrementalResult `json:"incremental,omitempty"`
		Persist     *bench.PersistResult     `json:"persist,omitempty"`
		Fleet       *bench.FleetResult       `json:"fleet,omitempty"`
		Chaos       *bench.ChaosResult       `json:"chaos,omitempty"`
		Sessions    *bench.SessionsResult    `json:"sessions,omitempty"`
	}{}

	if want("fig7a", "fig7b", "table1") {
		projects := workload.Projects(*scale)
		if *subjects < len(projects) {
			projects = projects[:*subjects]
		}
		results, err := e.RunAll(projects)
		if err != nil {
			fail(err)
		}
		out.Subjects = results
	}
	if want("fig8") {
		res, err := e.RunFig8(workload.SizeSweep(*sweepN, *sweepMin, *sweepMax))
		if err != nil {
			fail(err)
		}
		out.Fig8 = &res
	}
	if want("parallel") {
		spec := workload.SizeSweep(1, *parLines, *parLines)[0]
		res, err := e.RunParallel(spec, []int{1, 2, 4, 8})
		if err != nil {
			fail(err)
		}
		out.Parallel = &res
	}
	if want("serve") {
		spec := workload.SizeSweep(1, *srvLines, *srvLines)[0]
		res, err := e.RunServe(spec, *srvClients, *srvPerCli)
		if err != nil {
			fail(err)
		}
		out.Serve = &res
	}
	if want("incremental") {
		spec := workload.SizeSweep(1, *incrLines, *incrLines)[0]
		res, err := e.RunIncremental(spec)
		if err != nil {
			fail(err)
		}
		out.Incremental = &res
	}
	if want("persist") {
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		spec := workload.SizeSweep(1, *perLines, *perLines)[0]
		res, err := e.RunPersist(spec, exe)
		if err != nil {
			fail(err)
		}
		out.Persist = &res
	}
	if want("fleet") {
		var sizes []int
		for _, part := range strings.Split(*flNodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fail(fmt.Errorf("bad -fleet-nodes entry %q", part))
			}
			sizes = append(sizes, n)
		}
		spec := workload.SizeSweep(1, *flLines, *flLines)[0]
		res, err := e.RunFleet(spec, *flItems, sizes)
		if err != nil {
			fail(err)
		}
		out.Fleet = &res
		// Routing invariance is the experiment's hard gate: a fleet that
		// changes the findings is broken no matter how fast it is.
		if !res.AllIdentical {
			fmt.Fprintln(os.Stderr, "canary-bench: fleet findings differ from the direct run")
			os.Exit(1)
		}
	}

	if want("chaos") {
		spec := workload.SizeSweep(1, *chLines, *chLines)[0]
		res, err := e.RunChaos(spec, *chItems, *chWorkers, *chGossip)
		if err != nil {
			fail(err)
		}
		out.Chaos = &res
		// The chaos gates are hard: findings must stay byte-identical
		// under every failure, nothing may be silently lost, the
		// membership protocol must converge within the heartbeat bound,
		// and a batch at a frozen owner must not wait out the timeout.
		if !res.AllIdentical {
			fmt.Fprintln(os.Stderr, "canary-bench: chaos findings diverged from the direct run")
			os.Exit(1)
		}
		if !res.NoneLost {
			fmt.Fprintln(os.Stderr, "canary-bench: chaos rounds lost requests")
			os.Exit(1)
		}
		if !res.Converged {
			fmt.Fprintln(os.Stderr, "canary-bench: membership did not converge within the heartbeat bound")
			os.Exit(1)
		}
		if !res.SuspectObserved {
			fmt.Fprintln(os.Stderr, "canary-bench: paused worker was never observed suspect")
			os.Exit(1)
		}
		if !res.PauseBatchPrompt {
			fmt.Fprintf(os.Stderr, "canary-bench: the batch posted at a frozen owner took %v or more\n", res.PauseBatchBound)
			os.Exit(1)
		}
	}

	if want("sessions") {
		spec := workload.SizeSweep(1, *seLines, *seLines)[0]
		res, err := e.RunSessions(spec, *seEdits)
		if err != nil {
			fail(err)
		}
		out.Sessions = &res
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}

	first := true
	sep := func() {
		if !first {
			fmt.Println()
		}
		first = false
	}
	if out.Subjects != nil {
		if want("fig7a") {
			sep()
			bench.PrintFig7a(os.Stdout, out.Subjects)
		}
		if want("fig7b") {
			sep()
			bench.PrintFig7b(os.Stdout, out.Subjects)
		}
		if want("table1") {
			sep()
			bench.PrintTable1(os.Stdout, out.Subjects)
		}
	}
	if out.Fig8 != nil {
		sep()
		bench.PrintFig8(os.Stdout, *out.Fig8)
	}
	if out.Parallel != nil {
		sep()
		bench.PrintParallel(os.Stdout, *out.Parallel)
	}
	if out.Serve != nil {
		sep()
		bench.PrintServe(os.Stdout, *out.Serve)
	}
	if out.Incremental != nil {
		sep()
		bench.PrintIncremental(os.Stdout, *out.Incremental)
	}
	if out.Persist != nil {
		sep()
		bench.PrintPersist(os.Stdout, *out.Persist)
	}
	if out.Fleet != nil {
		sep()
		bench.PrintFleet(os.Stdout, *out.Fleet)
	}
	if out.Chaos != nil {
		sep()
		bench.PrintChaos(os.Stdout, *out.Chaos)
	}
	if out.Sessions != nil {
		sep()
		bench.PrintSessions(os.Stdout, *out.Sessions)
	}
}

// fail reports err and exits: 1 for a broken gate, 2 for any other error.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "canary-bench:", err)
	if errors.Is(err, bench.ErrGate) {
		os.Exit(1)
	}
	os.Exit(2)
}
