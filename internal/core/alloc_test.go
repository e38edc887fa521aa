package core

import (
	"testing"

	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// lowerEditSession lowers perfbench's edit-session program at seed.
func lowerEditSession(tb testing.TB, seed int64) *ir.Program {
	tb.Helper()
	ast, err := lang.Parse(workload.Generate(editSessionSpec(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// TestBuildAllocsPerInst bounds BuildContext's allocations per lowered
// instruction on the edit-session program, so that per-fact and per-edge
// garbage (a map per points-to set, a sorted label slice per load, an
// adjacency slice per node) cannot creep back into the build.
func TestBuildAllocsPerInst(t *testing.T) {
	const ceiling = 2.0
	prog := lowerEditSession(t, 1631)
	opt := DefaultBuild()
	opt.Workers = 1
	allocs := testing.AllocsPerRun(5, func() { Build(prog, opt) })
	perInst := allocs / float64(prog.NumInsts())
	t.Logf("%.0f allocations for %d instructions: %.2f per instruction", allocs, prog.NumInsts(), perInst)
	if perInst > ceiling {
		t.Errorf("BuildContext makes %.2f allocations per instruction, ceiling %.0f", perInst, ceiling)
	}
}
