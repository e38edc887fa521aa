package digest

import (
	"testing"

	"canary/internal/cache"
	"canary/internal/lang"
	"canary/internal/workload"
)

// TestSummaryKeysAllocsPerFunc bounds SummaryKeys' allocations per
// function on a fixed ~2 000-line program, so that per-token garbage in
// the structural hasher cannot creep back in.
func TestSummaryKeysAllocsPerFunc(t *testing.T) {
	const ceiling = 4.0
	prog := mustParse(t, workload.Generate(workload.Spec{
		Name: "alloc", Lines: 2000, Seed: 7,
		TruePositives: 2, CanaryFPs: 1, Fig2Traps: 2, OrderTraps: 1, LockTraps: 2, SaberTraps: 1, Fan: 3,
	}))
	allocs := testing.AllocsPerRun(5, func() { SummaryKeys(prog) })
	perFunc := allocs / float64(len(prog.Funcs))
	t.Logf("%.0f allocations for %d functions: %.2f per function", allocs, len(prog.Funcs), perFunc)
	if perFunc > ceiling {
		t.Errorf("SummaryKeys makes %.2f allocations per function, ceiling %.0f", perFunc, ceiling)
	}
}

var keysSink map[string]cache.Key

// BenchmarkSummaryKeys keys perfbench's edit-session program at seed 1631.
func BenchmarkSummaryKeys(b *testing.B) {
	prog, err := lang.Parse(editSession1631)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keysSink = SummaryKeys(prog)
	}
}
