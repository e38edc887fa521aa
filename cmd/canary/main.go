// Command canary analyzes a concurrent program and reports inter-thread
// value-flow bugs (use-after-free, double-free, null dereference,
// taint leaks), reproducing the tool of the PLDI 2021 paper.
//
// Usage:
//
//	canary [flags] file.cn
//
// # Exit-code contract
//
// The CLI is usable as a CI gate; scripts may rely on:
//
//	0  the analysis ran and the gate passed: no report was emitted, or
//	   -fail-on-report=false downgraded reports to informational output
//	1  the analysis ran and at least one report was emitted while the
//	   -fail-on-report gate (default on) was active
//	2  the invocation itself failed: usage error, unreadable input,
//	   parse/analysis error, or an unwritable -dot/-cpuprofile path
//
// Reports still print (and -json still carries them) with
// -fail-on-report=false — only the exit status changes, so a pipeline can
// collect results without tripping its failure handling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"canary"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		entry     = flag.String("entry", "main", "entry function")
		checkers  = flag.String("checkers", "", "comma-separated checkers (default: all); one of: "+strings.Join(canary.AllCheckers(), ", "))
		noMHP     = flag.Bool("no-mhp", false, "disable may-happen-in-parallel pruning")
		noLock    = flag.Bool("no-lock-order", false, "disable lock/unlock mutual-exclusion constraints")
		noCond    = flag.Bool("no-condvar", false, "disable wait/notify order constraints")
		memModel  = flag.String("memory-model", "sc", "memory model: sc | tso | pso")
		intra     = flag.Bool("intra", false, "also report intra-thread (sequential) bugs")
		workers   = flag.Int("workers", 0, "worker pool size for the VFG build and checking (0 = all CPUs, 1 = sequential)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
		cube      = flag.Bool("cube", false, "use cube-and-conquer parallel SMT solving")
		unroll    = flag.Int("unroll", 2, "loop unrolling depth")
		inline    = flag.Int("inline", 6, "call inlining (context) depth")
		stats     = flag.Bool("stats", false, "print analysis statistics")
		incr      = flag.Bool("incremental-stats", false, "rerun the analysis through a warm in-process session and print the incremental reuse statistics (text output only)")
		trace     = flag.Bool("trace", false, "print the value-flow trace of each report and the per-stage pipeline trace (wall time, steps, budgets, cache hits)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON")
		maxRounds = flag.Int("max-fixpoint-rounds", 0, "step budget: VFG fixpoint rounds before degrading to inconclusive (0 = unlimited)")
		maxSteps  = flag.Int("max-dfs-steps", 0, "step budget: source-sink DFS steps per checker (0 = unlimited)")
		maxNodes  = flag.Int("max-formula-nodes", 0, "step budget: guard formula nodes per query before eliding (0 = unlimited)")
		dotOut    = flag.String("dot", "", "write the value-flow graph in Graphviz DOT form to this file")
		failOn    = flag.Bool("fail-on-report", true, "exit 1 when any report is emitted (the CI gate); =false always exits 0 on a completed analysis")
		warmDir   = flag.String("warm-dir", "", "persistent warm state: analyze through a session backed by the content-addressed disk store rooted here, so repeated CLI runs and CI jobs start warm")
		warmMax   = flag.Int64("warm-max-bytes", 0, "size cap of the -warm-dir store in bytes; least-recently-accessed entries are evicted past it (0 = 1 GiB)")
		warmImp   = flag.String("warm-import", "", "before analyzing, merge this snapshot archive into the -warm-dir store (usable without an input file)")
		warmExp   = flag.String("warm-export", "", "after analyzing, export the -warm-dir store as a single-file snapshot archive for shipping to another machine (usable without an input file)")
		watch     = flag.Bool("watch", false, "stay running: poll the input file for saves, feed each one to a live edit session as a line diff, and print findings deltas instead of full re-listings (text output only; exit 0 on ctrl-c)")
		watchPoll = flag.Duration("watch-poll", 250*time.Millisecond, "poll interval for -watch")
	)
	flag.Parse()
	// Snapshot shipping works standalone: with -warm-dir and an
	// import/export flag but no input file, just move the archive.
	archiveOnly := flag.NArg() == 0 && *warmDir != "" && (*warmImp != "" || *warmExp != "")
	if flag.NArg() != 1 && !archiveOnly {
		fmt.Fprintln(os.Stderr, "usage: canary [flags] file.cn")
		fmt.Fprintln(os.Stderr, "       canary -warm-dir dir -warm-import file | -warm-export file")
		flag.PrintDefaults()
		return 2
	}
	if (*warmImp != "" || *warmExp != "") && *warmDir == "" {
		fmt.Fprintln(os.Stderr, "canary: -warm-import/-warm-export need -warm-dir")
		return 2
	}

	var sess *canary.Session
	if *warmDir != "" {
		var serr error
		sess, serr = canary.NewPersistentSession(*warmDir, *warmMax)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "canary:", serr)
			return 2
		}
		defer sess.Close()
	}
	if *warmImp != "" {
		f, ferr := os.Open(*warmImp)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "canary:", ferr)
			return 2
		}
		n, ierr := sess.ImportWarm(f)
		f.Close()
		if ierr != nil {
			fmt.Fprintln(os.Stderr, "canary:", ierr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "canary: imported %d warm entries from %s\n", n, *warmImp)
	}
	exportWarm := func() int {
		if *warmExp == "" {
			return 0
		}
		f, ferr := os.Create(*warmExp)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "canary:", ferr)
			return 2
		}
		n, eerr := sess.ExportWarm(f)
		if cerr := f.Close(); eerr == nil {
			eerr = cerr
		}
		if eerr != nil {
			fmt.Fprintln(os.Stderr, "canary:", eerr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "canary: exported %d warm entries to %s\n", n, *warmExp)
		return 0
	}
	if archiveOnly {
		return exportWarm()
	}

	opt := canary.DefaultOptions()
	opt.Entry = *entry
	opt.EnableMHP = !*noMHP
	opt.LockOrder = !*noLock
	opt.CondVarOrder = !*noCond
	opt.MemoryModel = *memModel
	opt.RequireInterThread = !*intra
	opt.Workers = *workers
	opt.CubeAndConquer = *cube
	opt.UnrollDepth = *unroll
	opt.InlineDepth = *inline
	if *checkers != "" {
		opt.Checkers = strings.Split(*checkers, ",")
	}
	opt.Budgets = canary.Budgets{
		MaxFixpointRounds: *maxRounds,
		MaxDFSSteps:       *maxSteps,
		MaxFormulaNodes:   *maxNodes,
	}

	if *cpuProf != "" {
		f, perr := os.Create(*cpuProf)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "canary:", perr)
			return 2
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "canary:", perr)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *watch {
		return runWatch(flag.Arg(0), sess, opt, *watchPoll)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary:", err)
		return 2
	}
	var res *canary.Result
	if sess != nil {
		res, err = sess.Analyze(string(data), opt)
	} else {
		res, err = canary.Analyze(string(data), opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary:", err)
		return 2
	}
	if sess != nil {
		// Land write-behind flushes before any export and before the
		// deferred Close, so the disk stats below are settled.
		sess.Flush()
	}
	if rc := exportWarm(); rc != 0 {
		return rc
	}

	if *dotOut != "" {
		f, ferr := os.Create(*dotOut)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "canary:", ferr)
			return 2
		}
		if derr := canary.WriteVFGDot(string(data), opt, f); derr != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "canary:", derr)
			return 2
		}
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "canary:", cerr)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(res); jerr != nil {
			fmt.Fprintln(os.Stderr, "canary:", jerr)
			return 2
		}
		if *failOn && len(res.Reports) > 0 {
			return 1
		}
		return 0
	}

	for _, r := range res.Reports {
		fmt.Println(r)
		if *trace {
			for _, step := range r.Trace {
				fmt.Println("    ", step)
			}
			fmt.Println("     guard:", r.Guard)
			if len(r.Schedule) > 0 {
				fmt.Println("     witness schedule:")
				for _, s := range r.Schedule {
					fmt.Println("      ", s)
				}
			}
		}
	}
	fmt.Printf("%d report(s)\n", len(res.Reports))
	if len(res.Degraded) > 0 {
		fmt.Printf("degraded: budget exhausted in stage(s): %s (affected pairs are inconclusive, not dropped)\n",
			strings.Join(res.Degraded, ", "))
	}
	if *trace {
		fmt.Println("pipeline trace:")
		for _, sp := range res.Trace {
			line := fmt.Sprintf("  %-13s %12v", sp.Stage, sp.Wall)
			if sp.Steps > 0 {
				line += fmt.Sprintf("  steps=%d", sp.Steps)
			}
			if sp.Budget > 0 {
				line += fmt.Sprintf("  budget=%d remaining=%d", sp.Budget, sp.BudgetRemaining)
			}
			if sp.CacheHits > 0 {
				line += fmt.Sprintf("  cache-hits=%d", sp.CacheHits)
			}
			fmt.Println(line)
		}
	}

	if *stats {
		fmt.Printf("program: %d threads, %d instructions\n", res.Threads, res.Instructions)
		fmt.Printf("vfg: %d nodes, %d edges (%d direct, %d dd, %d interference, %d filtered), %d escaped objects, %d iterations, built in %v\n",
			res.VFG.Nodes, res.VFG.Edges, res.VFG.DirectEdges, res.VFG.DataDepEdges,
			res.VFG.InterferenceEdges, res.VFG.FilteredEdges, res.VFG.EscapedObjects,
			res.VFG.Iterations, res.VFG.BuildTime)
		fmt.Printf("build: parallel regions %v, %d guard-cache hits\n",
			res.VFG.ParallelBuildTime, res.VFG.CacheHits)
		fmt.Printf("check: %d sources, %d paths, %d semi-decided, %d fact-decided, %d trivial solves, %d solver queries (%d unsat), search %v, solve %v\n",
			res.Check.Sources, res.Check.PathsExamined, res.Check.SemiDecided, res.Check.FactDecided,
			res.Check.TrivialSolves, res.Check.SolverQueries, res.Check.SolverUnsat, res.Check.SearchTime, res.Check.SolveTime)
		gh, gm := canary.GuardInternStats()
		fmt.Printf("guard interner: %d hits, %d misses (process-wide)\n", gh, gm)
		gi, bw, be := canary.AllocStats()
		fmt.Printf("allocations: %d interned formulas, %d bitset words, %d batched evals (process-wide)\n", gi, bw, be)
		if sess != nil {
			ds := sess.DiskStats()
			fmt.Printf("disk store: %d hits, %d misses, %d writes, %d entries (%d bytes), %d corrupt, %d gc evictions, %d dropped writes\n",
				ds.Hits, ds.Misses, ds.Writes, ds.Entries, ds.Bytes,
				ds.CorruptEntries, ds.GCEvictions, ds.DroppedWrites)
		}
		if res.Check.SearchBudgetExhausted+res.Check.FormulaBudgetExhausted+res.Check.SolveBudgetExhausted > 0 ||
			res.VFG.FixpointBudgetExhausted {
			fmt.Printf("budgets: fixpoint exhausted=%v, search exhausted=%d, formula exhausted=%d, solve exhausted=%d\n",
				res.VFG.FixpointBudgetExhausted, res.Check.SearchBudgetExhausted,
				res.Check.FormulaBudgetExhausted, res.Check.SolveBudgetExhausted)
		}
	}
	if *incr {
		// Prime a fresh session with one cold run, then rerun warm: the
		// second run's stats show exactly how much work the digest-keyed
		// summary store can absorb.
		isess := canary.NewSession()
		if _, ierr := isess.Analyze(string(data), opt); ierr != nil {
			fmt.Fprintln(os.Stderr, "canary:", ierr)
			return 2
		}
		warm, ierr := isess.Analyze(string(data), opt)
		if ierr != nil {
			fmt.Fprintln(os.Stderr, "canary:", ierr)
			return 2
		}
		total := warm.VFG.SummaryHits + warm.VFG.FuncsReanalyzed
		fmt.Printf("incremental (warm rerun): %d/%d function summaries reused, %d reanalyzed\n",
			warm.VFG.SummaryHits, total, warm.VFG.FuncsReanalyzed)
	}
	if *failOn && len(res.Reports) > 0 {
		return 1
	}
	return 0
}
