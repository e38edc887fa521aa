package core

import (
	"runtime"
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

// TestBuildAllocsPerInst bounds BuildContext's allocations and bytes per
// lowered instruction on the edit-session program, so that per-fact and
// per-edge garbage (a map per points-to set, a sorted label slice per
// load, an adjacency slice per node, an edge-dedup map) cannot creep back
// into the build.
func TestBuildAllocsPerInst(t *testing.T) {
	const ceiling, bytesCeiling = 2.0, 540.0
	prog := lowerEditSession(t, 1631)
	opt := DefaultBuild()
	opt.Workers = 1
	allocs, bytes := allocsAndBytesPerRun(5, func() { Build(prog, opt) })
	n := float64(prog.NumInsts())
	t.Logf("%.0f allocations and %.0f bytes for %d instructions: %.2f and %.0f per instruction",
		allocs, bytes, prog.NumInsts(), allocs/n, bytes/n)
	if allocs/n > ceiling {
		t.Errorf("BuildContext makes %.2f allocations per instruction, ceiling %.0f", allocs/n, ceiling)
	}
	if bytes/n > bytesCeiling {
		t.Errorf("BuildContext allocates %.0f bytes per instruction, ceiling %.0f", bytes/n, bytesCeiling)
	}
}

// allocsAndBytesPerRun is testing.AllocsPerRun that also reports the
// mean bytes allocated per run.
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
