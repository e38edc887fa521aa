// Benchmarks regenerating the paper's evaluation (one per table/figure),
// plus ablations for the design decisions called out in DESIGN.md.
//
// The `go test -bench` entry points use scaled-down subjects so the whole
// suite finishes quickly; `cmd/canary-bench` runs the full catalogue with
// configurable scale and timeout and prints the paper-style tables.
package canary

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"canary/internal/baseline"
	"canary/internal/core"
	"canary/internal/digest"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/smt"
	"canary/internal/workload"
)

// benchSubjects returns the first n catalogue subjects at bench scale.
func benchSubjects(n int, lines int) []workload.Project {
	ps := workload.Projects(0.004)
	if n < len(ps) {
		ps = ps[:n]
	}
	for i := range ps {
		if ps[i].Lines > lines {
			ps[i].Lines = lines
		}
	}
	return ps
}

func lowerSpec(b *testing.B, spec workload.Spec) *ir.Program {
	b.Helper()
	src := workload.Generate(spec)
	ast, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkFig7aVFGTime regenerates Fig. 7a: VFG-construction time for
// Saber, Fsam, and Canary on catalogue subjects ordered by size.
func BenchmarkFig7aVFGTime(b *testing.B) {
	for _, p := range benchSubjects(4, 1500) {
		b.Run(fmt.Sprintf("%s/saber", p.Name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, p.Spec)
				b.StartTimer()
				if _, err := (baseline.Saber{}).BuildVFG(context.Background(), prog); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/fsam", p.Name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, p.Spec)
				b.StartTimer()
				if _, err := (baseline.Fsam{}).BuildVFG(context.Background(), prog); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/canary", p.Name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, p.Spec)
				b.StartTimer()
				core.Build(prog, core.DefaultBuild())
			}
		})
	}
}

// BenchmarkFig7bVFGMemory regenerates Fig. 7b: allocation volume of VFG
// construction per tool (run with -benchmem; B/op is the series).
func BenchmarkFig7bVFGMemory(b *testing.B) {
	p := benchSubjects(4, 1500)[3] // darknet-shaped subject
	b.Run("saber", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prog := lowerSpec(b, p.Spec)
			b.StartTimer()
			if _, err := (baseline.Saber{}).BuildVFG(context.Background(), prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fsam", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prog := lowerSpec(b, p.Spec)
			b.StartTimer()
			if _, err := (baseline.Fsam{}).BuildVFG(context.Background(), prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("canary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prog := lowerSpec(b, p.Spec)
			b.StartTimer()
			core.Build(prog, core.DefaultBuild())
		}
	})
}

// BenchmarkFig8Scalability regenerates Fig. 8: Canary's full pipeline
// (build + path-sensitive checking) across increasing program sizes; the
// per-size sub-benchmark times form the scalability series.
func BenchmarkFig8Scalability(b *testing.B) {
	for _, spec := range workload.SizeSweep(4, 400, 3200) {
		spec := spec
		b.Run(fmt.Sprintf("lines=%d", spec.Lines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				b.StartTimer()
				builder := core.Build(prog, core.DefaultBuild())
				opt := core.DefaultCheck()
				opt.Checkers = []string{core.CheckUAF}
				builder.Check(opt)
			}
		})
	}
}

// BenchmarkTable1BugHunting regenerates Table 1's Canary column: checking
// the catalogue subjects and verifying the ground-truth report counts. The
// reports/FP metrics are attached to the benchmark output.
func BenchmarkTable1BugHunting(b *testing.B) {
	for _, p := range benchSubjects(6, 1200) {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			var reports, fps int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, p.Spec)
				b.StartTimer()
				builder := core.Build(prog, core.DefaultBuild())
				opt := core.DefaultCheck()
				opt.Checkers = []string{core.CheckUAF}
				rs, _ := builder.Check(opt)
				reports = len(rs)
				fps = 0
				for _, r := range rs {
					if !workload.TruePositive(r.Source.Fn) {
						fps++
					}
				}
			}
			b.ReportMetric(float64(reports), "reports")
			b.ReportMetric(float64(fps), "falsepos")
			want := p.TruePositives + p.CanaryFPs
			if reports != want {
				b.Fatalf("%s: got %d reports, seeded %d", p.Name, reports, want)
			}
		})
	}
}

// BenchmarkAblationMHP measures the interference analysis with and without
// may-happen-in-parallel pruning (§6).
func BenchmarkAblationMHP(b *testing.B) {
	spec := workload.SizeSweep(1, 1500, 1500)[0]
	for _, enable := range []bool{true, false} {
		enable := enable
		b.Run(fmt.Sprintf("mhp=%v", enable), func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				b.StartTimer()
				builder := core.Build(prog, core.BuildOptions{EnableMHP: enable})
				edges = builder.Stats.InterferenceEdges
			}
			b.ReportMetric(float64(edges), "id-edges")
		})
	}
}

// BenchmarkAblationGuardSimplify measures checking with and without the
// semi-decision filter (§5.2, opt. 1).
func BenchmarkAblationGuardSimplify(b *testing.B) {
	spec := workload.SizeSweep(1, 1200, 1200)[0]
	for _, enable := range []bool{true, false} {
		enable := enable
		b.Run(fmt.Sprintf("simplify=%v", enable), func(b *testing.B) {
			b.ReportAllocs()
			var queries int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				builder := core.Build(prog, core.DefaultBuild())
				opt := core.DefaultCheck()
				opt.Checkers = []string{core.CheckUAF}
				opt.SimplifyGuards = enable
				b.StartTimer()
				_, stats := builder.Check(opt)
				queries = stats.SolverQueries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// BenchmarkAblationParallelCheck measures the source-parallel checking of
// §5.2 (opt. 2).
func BenchmarkAblationParallelCheck(b *testing.B) {
	spec := workload.SizeSweep(1, 2000, 2000)[0]
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				builder := core.Build(prog, core.DefaultBuild())
				opt := core.DefaultCheck()
				opt.Checkers = []string{core.CheckUAF}
				opt.Workers = workers
				b.StartTimer()
				builder.Check(opt)
			}
		})
	}
}

// BenchmarkAblationCubeAndConquer measures the parallel SMT strategy of
// §5.2 (opt. 3) on a synthetic hard query (a pigeonhole instance mixed
// with order atoms).
func BenchmarkAblationCubeAndConquer(b *testing.B) {
	for _, cube := range []bool{false, true} {
		cube := cube
		b.Run(fmt.Sprintf("cube=%v", cube), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pool, formulas := hardQuery(7)
				b.StartTimer()
				if cube {
					smt.SolveCubeAndConquer(pool, formulas, smt.CubeOptions{SplitAtoms: 3, Workers: 4})
				} else {
					s := smt.New(pool)
					for _, f := range formulas {
						s.Assert(f)
					}
					s.Solve()
				}
			}
		})
	}
}

// BenchmarkAblationLockOrder measures checking with and without the
// lock/unlock extension (§9 future work 1) on a lock-heavy subject.
func BenchmarkAblationLockOrder(b *testing.B) {
	spec := workload.Spec{
		Name: "locky", Lines: 900, Seed: 99,
		TruePositives: 1, LockTraps: 8, Fan: 2,
	}
	for _, enable := range []bool{true, false} {
		enable := enable
		b.Run(fmt.Sprintf("lockorder=%v", enable), func(b *testing.B) {
			b.ReportAllocs()
			var reports int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				builder := core.Build(prog, core.DefaultBuild())
				opt := core.DefaultCheck()
				opt.Checkers = []string{core.CheckUAF}
				opt.LockOrder = enable
				b.StartTimer()
				rs, _ := builder.Check(opt)
				reports = len(rs)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblationFactPropagation measures the customized decision
// procedure (§9 future work 3): the order-fact closure that settles or
// shrinks queries before the CDCL solver.
func BenchmarkAblationFactPropagation(b *testing.B) {
	spec := workload.SizeSweep(1, 1500, 1500)[0]
	for _, enable := range []bool{true, false} {
		enable := enable
		b.Run(fmt.Sprintf("factprop=%v", enable), func(b *testing.B) {
			b.ReportAllocs()
			var queries, decided int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				builder := core.Build(prog, core.DefaultBuild())
				opt := core.DefaultCheck()
				opt.Checkers = []string{core.CheckUAF}
				opt.FactPropagation = enable
				b.StartTimer()
				_, stats := builder.Check(opt)
				queries = stats.SolverQueries
				decided = stats.FactDecided
			}
			b.ReportMetric(float64(queries), "queries")
			b.ReportMetric(float64(decided), "factdecided")
		})
	}
}

// BenchmarkAnalyzeParallel measures the whole analysis (parallel VFG build
// + deterministic checking pool) at several worker-pool sizes on the
// largest bench subject. The output is identical at every size — the pool
// is a throughput knob only — so the series is directly comparable.
func BenchmarkAnalyzeParallel(b *testing.B) {
	spec := workload.SizeSweep(1, 3200, 3200)[0]
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := lowerSpec(b, spec)
				b.StartTimer()
				bopt := core.DefaultBuild()
				bopt.Workers = workers
				builder := core.Build(prog, bopt)
				copt := core.DefaultCheck()
				copt.Checkers = []string{core.CheckUAF}
				copt.Workers = workers
				builder.Check(copt)
			}
		})
	}
}

// BenchmarkCheckCached measures a repeated Analysis.Check round: the first
// round populates the shared SMT query cache, so the measured rounds replay
// verdicts instead of re-solving. Fact propagation is disabled to route
// every undecided path constraint through the solver (and hence the cache).
func BenchmarkCheckCached(b *testing.B) {
	opt := DefaultOptions()
	opt.Checkers = []string{CheckUseAfterFree}
	opt.FactPropagation = false
	a, err := NewAnalysis(workload.Generate(workload.SizeSweep(1, 2000, 2000)[0]), opt)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a.Check(); err != nil { // cold round: fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits, misses int
	for i := 0; i < b.N; i++ {
		res, err := a.Check()
		if err != nil {
			b.Fatal(err)
		}
		hits = res.Check.CacheHits
		misses = res.Check.CacheMisses
	}
	b.ReportMetric(float64(hits), "cachehits")
	b.ReportMetric(float64(misses), "cachemisses")
	if hits == 0 {
		b.Fatal("warm Check round produced no SMT cache hits")
	}
}

// BenchmarkSolver measures the raw SMT core on pigeonhole instances.
func BenchmarkSolver(b *testing.B) {
	for _, holes := range []int{5, 6, 7} {
		holes := holes
		b.Run(fmt.Sprintf("php-%d", holes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pool, formulas := hardQuery(holes)
				s := smt.New(pool)
				for _, f := range formulas {
					s.Assert(f)
				}
				b.StartTimer()
				if s.Solve() != smt.Unsat {
					b.Fatal("pigeonhole must be unsat")
				}
			}
		})
	}
}

// BenchmarkLiveSemanticSave times one semantic save of the edit-session
// stream (seed 1, ~8 200 lines) through a warm LiveSession and reports
// the share of those saves that lowered to the previous program and so
// cut off before the VFG build (cutoff/op). It then
// replays the same saves through the front end alone and reports its
// stages per save: the splice of the text, which also decides a
// line-preserving save's representation-only verdict (apply); the
// whole-text verdict of a save that moves lines (canon); the re-parse
// (parse); and the re-key (keys).
func BenchmarkLiveSemanticSave(b *testing.B) { benchLiveSave(b, true) }

// BenchmarkLiveTrivialSave is BenchmarkLiveSemanticSave for the
// representation-only saves of the stream. Like perfbench, it collects
// garbage before each one, so that a collection of the semantic saves'
// garbage does not land on it.
func BenchmarkLiveTrivialSave(b *testing.B) { benchLiveSave(b, false) }

func benchLiveSave(b *testing.B, semantic bool) {
	spec := workload.EditSessionSpec(1)
	stream, err := workload.NewEditStream(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	live, _, err := NewSession().Open(stream.Source(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	edit := func(sv workload.Save) []Edit { return []Edit{{sv.Line, sv.Line + 1, sv.Text + "\n"}} }
	cutoffs := 0 // timed semantic saves that stopped after lowering
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sv := stream.Next()
		for ; sv.Kind.Semantic() != semantic; sv = stream.Next() {
			// Keep the session on the stream's text.
			if _, err := live.ApplyEdits(ctx, edit(sv)); err != nil {
				b.Fatal(err)
			}
		}
		if !semantic {
			runtime.GC()
		}
		b.StartTimer()
		if _, err := live.ApplyEdits(ctx, edit(sv)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if semantic && !hasSpan(live.Result(), "vfg") {
			cutoffs++
		}
		b.StartTimer()
	}
	b.StopTimer()
	if semantic {
		b.ReportMetric(float64(cutoffs)/float64(b.N), "cutoff/op")
	}

	// The same saves again, through the front end's stages alone.
	stream, _ = workload.NewEditStream(spec, 1)
	ast, err := lang.Parse(stream.Source())
	if err != nil {
		b.Fatal(err)
	}
	rev := digest.Revision{Src: stream.Source(), AST: ast, Index: digest.NewKeyIndex(ast)}
	var stages [4]time.Duration // apply, canon, parse, keys
	for i := 0; i < b.N; {
		sv := stream.Next()
		timed := sv.Kind.Semantic() == semantic
		if timed {
			i++
		}
		lap := func(stage int, t0 time.Time) {
			if timed {
				stages[stage] += time.Since(t0)
			}
		}
		t0 := time.Now()
		p, err := digest.Splice(rev.Src, []digest.Edit{{Start: sv.Line, End: sv.Line + 1, Text: sv.Text + "\n"}})
		lap(0, t0)
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		trivial := p.RepresentationOnly()
		lap(1, t0)
		if trivial {
			rev.Src = p.Text()
			continue
		}
		lo, hi, delta := p.Span()
		t0 = time.Now()
		ast, fresh, err := lang.Reparse(rev.AST, p.Text(), lo, hi, delta)
		lap(2, t0)
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		ix, _ := rev.Index.Update(ast, fresh)
		lap(3, t0)
		rev = digest.Revision{Src: p.Text(), AST: ast, Index: ix}
	}
	for i, name := range []string{"apply", "canon", "parse", "keys"} {
		b.ReportMetric(float64(stages[i].Microseconds())/float64(b.N), name+"-µs/op")
	}
}
