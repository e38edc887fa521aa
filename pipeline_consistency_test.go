package canary

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"canary/internal/failpoint"
	"canary/internal/pipeline"
	"canary/internal/workload"
)

// TestRegistryConsistency is the cross-layer contract of the stage
// registry: every list that claims to derive from it actually does.
func TestRegistryConsistency(t *testing.T) {
	// Every budget dimension a result can list in Degraded is governed by
	// exactly one registered stage, and every budgeted stage declares at
	// least one failpoint site — a governor without a fault hook cannot be
	// exercised by the fault-injection suite.
	dims := make(map[string]int)
	for _, st := range pipeline.Stages() {
		for _, dim := range st.Budgets {
			dims[dim]++
		}
		if len(st.Budgets) > 0 && len(st.Sites) == 0 {
			t.Errorf("budgeted stage %q declares no failpoint site", st.Name)
		}
	}
	for _, dim := range pipeline.BudgetDimensions() {
		if dims[dim] != 1 {
			t.Errorf("budget dimension %q governed by %d stages, want 1", dim, dims[dim])
		}
	}

	// failpoint.Sites() is exactly the registry's site set (it re-sorts
	// for display). The failpoint package must not grow a site of its own,
	// and no registry site may be missing from the armable set.
	reg := make(map[string]bool)
	for _, site := range pipeline.FailpointSites() {
		reg[site] = true
	}
	fps := failpoint.Sites()
	if len(fps) != len(reg) {
		t.Fatalf("failpoint.Sites() has %d sites, registry %d:\n%v\n%v", len(fps), len(reg), fps, pipeline.FailpointSites())
	}
	for _, site := range fps {
		if !reg[site] {
			t.Errorf("failpoint site %q is not in the registry", site)
		}
	}
}

// TestDegradedFollowsRegistryOrder starves every governed stage on the
// corpus and checks that each result's Degraded list is a subsequence of
// pipeline.BudgetDimensions() — i.e. exhausted dimensions appear in
// registration order, never reordered — and that at least one run
// degrades in more than one dimension so the ordering is actually
// observable.
func TestDegradedFollowsRegistryOrder(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	order := pipeline.BudgetDimensions()
	index := make(map[string]int, len(order))
	for i, dim := range order {
		index[dim] = i
	}
	multi := false
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Checkers = append(AllCheckers(), ExtendedCheckers()...)
		opt.Budgets = tinyBudgets()
		res, err := Analyze(string(data), opt)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		last := -1
		for _, dim := range res.Degraded {
			i, ok := index[dim]
			if !ok {
				t.Errorf("%s: Degraded lists unknown dimension %q", file, dim)
				continue
			}
			if i <= last {
				t.Errorf("%s: Degraded %v not in registry order %v", file, res.Degraded, order)
			}
			last = i
		}
		if len(res.Degraded) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("no corpus run degraded in >1 dimension; ordering untested — tighten tinyBudgets")
	}
}

// TestTraceCoversRegistry runs a real analysis and checks Result.Trace
// carries exactly one span per registry stage, in registry order — the
// tentpole payoff of routing every stage through the instrumented runner.
func TestTraceCoversRegistry(t *testing.T) {
	src := `
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
	res, err := Analyze(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := pipeline.StageNames()
	if len(res.Trace) != len(names) {
		t.Fatalf("Trace has %d spans, want %d: %+v", len(res.Trace), len(names), res.Trace)
	}
	for i, name := range names {
		if res.Trace[i].Stage != name {
			t.Errorf("Trace[%d].Stage = %q, want %q", i, res.Trace[i].Stage, name)
		}
	}
	// Spans are measurements, not placeholders: the stages that do real
	// work on this program must show steps.
	steps := make(map[string]int64)
	for _, sp := range res.Trace {
		steps[sp.Stage] = sp.Steps
	}
	for _, stage := range []string{pipeline.StageParse, pipeline.StageLower, pipeline.StageVFG, pipeline.StageCheck} {
		if steps[stage] <= 0 {
			t.Errorf("stage %q span has no steps: %+v", stage, res.Trace)
		}
	}
}

// TestBuildSpansPartitionBuildTime checks, over the corpus plus one
// generated subject large enough that a double count exceeds the slack,
// that the vfg span holds only the build's residual: the vfg, mhp, datadep
// and interference spans are each non-negative and together stay within
// the build's own wall time, so no sub-stage is counted twice.
func TestBuildSpansPartitionBuildTime(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	subjects := make(map[string]string)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		subjects[file] = string(data)
	}
	subjects["generated"] = workload.Generate(workload.Projects(0.004)[14].Spec)
	build := map[string]bool{
		pipeline.StageVFG: true, pipeline.StageMHP: true,
		pipeline.StageDataDep: true, pipeline.StageInterference: true,
	}
	for name, src := range subjects {
		res, err := Analyze(src, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum time.Duration
		seen := 0
		for _, sp := range res.Trace {
			if !build[sp.Stage] {
				continue
			}
			seen++
			if sp.Wall < 0 {
				t.Errorf("%s: %s span wall %v < 0", name, sp.Stage, sp.Wall)
			}
			sum += sp.Wall
		}
		if seen != len(build) {
			t.Errorf("%s: %d build spans in trace, want %d: %+v", name, seen, len(build), res.Trace)
		}
		if limit := res.VFG.BuildTime + time.Millisecond; sum > limit {
			t.Errorf("%s: build spans sum to %v, over BuildTime %v + 1ms", name, sum, res.VFG.BuildTime)
		}
	}
}
