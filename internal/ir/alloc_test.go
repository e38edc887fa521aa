package ir

import (
	"testing"

	"canary/internal/lang"
	"canary/internal/workload"
)

// allocSpec is the fixed ~2 000-line program of the allocation ceilings.
var allocSpec = workload.Spec{
	Name: "alloc", Lines: 2000, Seed: 7,
	TruePositives: 2, CanaryFPs: 1, Fig2Traps: 2, OrderTraps: 1, LockTraps: 2, SaberTraps: 1, Fan: 3,
}

// TestLowerAllocsPerInst bounds Lower's allocations per lowered
// instruction, so that per-instruction garbage (formatted names, per-block
// lock maps) cannot creep back in.
func TestLowerAllocsPerInst(t *testing.T) {
	const ceiling = 7.0
	ast, err := lang.Parse(workload.Generate(allocSpec))
	if err != nil {
		t.Fatal(err)
	}
	var p *Program
	allocs := testing.AllocsPerRun(5, func() {
		if p, err = Lower(ast, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	perInst := allocs / float64(p.NumInsts())
	t.Logf("%.0f allocations for %d instructions: %.2f per instruction", allocs, p.NumInsts(), perInst)
	if perInst > ceiling {
		t.Errorf("Lower makes %.2f allocations per instruction, ceiling %.0f", perInst, ceiling)
	}
}

var lowerSink *Program

// BenchmarkLower lowers perfbench's edit-session program at seed 1631.
func BenchmarkLower(b *testing.B) {
	ast, err := lang.Parse(workload.Generate(editSessionSpec(1631)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lowerSink, err = Lower(ast, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
