package workload

import (
	"context"
	"strings"
	"testing"

	"canary/internal/baseline"
	"canary/internal/core"
	"canary/internal/ir"
	"canary/internal/lang"
)

func smallSpec() Spec {
	return Spec{
		Name: "unit", KLoC: 1, Lines: 400, Seed: 42,
		TruePositives: 2, CanaryFPs: 1, Fig2Traps: 2, OrderTraps: 2,
		LockTraps: 1, Fan: 2,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallSpec())
	b := Generate(smallSpec())
	if a != b {
		t.Fatal("generation must be deterministic for a fixed spec")
	}
	other := smallSpec()
	other.Seed = 43
	if Generate(other) == a {
		t.Fatal("different seeds should differ")
	}
}

func TestGeneratedProgramParsesAndLowers(t *testing.T) {
	src := Generate(smallSpec())
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, head(src, 40))
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatalf("generated program does not lower: %v", err)
	}
	if len(prog.Threads) < 5 {
		t.Errorf("expected several threads, got %d", len(prog.Threads))
	}
}

func TestGeneratedSizeApproximation(t *testing.T) {
	spec := smallSpec()
	spec.Lines = 2000
	src := Generate(spec)
	lines := strings.Count(src, "\n")
	if lines < 1800 {
		t.Errorf("generated %d lines, want ≈2000", lines)
	}
}

func TestCanaryGroundTruthOnWorkload(t *testing.T) {
	spec := smallSpec()
	src := Generate(spec)
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := core.Build(prog, core.DefaultBuild())
	opt := core.DefaultCheck()
	opt.Checkers = []string{core.CheckUAF}
	reports, _ := b.Check(opt)

	tp, fp := 0, 0
	for _, r := range reports {
		if TruePositive(r.Source.Fn) {
			tp++
		} else {
			fp++
		}
	}
	if tp != spec.TruePositives {
		t.Errorf("Canary should find all %d seeded TPs, got %d", spec.TruePositives, tp)
	}
	if fp != spec.CanaryFPs {
		t.Errorf("Canary should report exactly the %d unprunable FPs, got %d", spec.CanaryFPs, fp)
		for _, r := range reports {
			t.Logf("report: %v", r)
		}
	}
}

func TestBaselinesReportTrapsOnWorkload(t *testing.T) {
	spec := smallSpec()
	src := Generate(spec)
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.Saber{}.BuildVFG(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	saberReports := baseline.CheckReachability(res.G, "use-after-free")
	canaryExpected := spec.TruePositives + spec.CanaryFPs
	if len(saberReports) <= canaryExpected {
		t.Errorf("Saber should report far more than Canary's %d, got %d",
			canaryExpected, len(saberReports))
	}
	fp := 0
	for _, r := range saberReports {
		if !TruePositive(prog.FnName(prog.Inst(r.Source))) {
			fp++
		}
	}
	if fp == 0 {
		t.Error("Saber reports should be dominated by false positives")
	}
}

func TestProjectsCatalogue(t *testing.T) {
	ps := Projects(0.004)
	if len(ps) != 20 {
		t.Fatalf("want 20 projects, got %d", len(ps))
	}
	if ps[0].Name != "lrzip" || ps[19].Name != "firefox" {
		t.Errorf("catalogue order wrong: %s .. %s", ps[0].Name, ps[19].Name)
	}
	totalReports, totalFPs := 0, 0
	for _, p := range ps {
		if p.Lines <= 0 {
			t.Errorf("%s: bad size", p.Name)
		}
		if p.TruePositives < 0 || p.CanaryFPs < 0 {
			t.Errorf("%s: negative seeds", p.Name)
		}
		totalReports += p.TruePositives + p.CanaryFPs
		totalFPs += p.CanaryFPs
	}
	// The paper's Canary totals: 15 reports, 4 FPs (26.67%).
	if totalReports != 15 || totalFPs != 4 {
		t.Errorf("catalogue totals: %d reports / %d FPs, want 15 / 4", totalReports, totalFPs)
	}
	// Sizes must be monotonically non-decreasing (subjects ordered by size).
	for i := 1; i < len(ps); i++ {
		if ps[i].KLoC < ps[i-1].KLoC {
			t.Errorf("catalogue not ordered by size at %s", ps[i].Name)
		}
	}
}

func TestSizeSweep(t *testing.T) {
	specs := SizeSweep(5, 500, 8000)
	if len(specs) != 5 {
		t.Fatalf("want 5 specs, got %d", len(specs))
	}
	if specs[0].Lines != 500 {
		t.Errorf("first sweep point should be 500 lines, got %d", specs[0].Lines)
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Lines <= specs[i-1].Lines {
			t.Error("sweep sizes must increase")
		}
	}
	if specs[4].Lines < 7500 {
		t.Errorf("last sweep point should approach 8000, got %d", specs[4].Lines)
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
