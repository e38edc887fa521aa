package ir

import (
	"runtime"
	"testing"
	"unsafe"

	"canary/internal/lang"
	"canary/internal/workload"
)

// allocSpec is the fixed ~2 000-line program of the allocation ceilings.
var allocSpec = workload.Spec{
	Name: "alloc", Lines: 2000, Seed: 7,
	TruePositives: 2, CanaryFPs: 1, Fig2Traps: 2, OrderTraps: 1, LockTraps: 2, SaberTraps: 1, Fan: 3,
}

// TestLowerAllocsPerInst bounds Lower's allocations and bytes per lowered
// instruction, so that per-instruction garbage (formatted names, per-block
// lock maps) and per-instruction bloat cannot creep back in.
func TestLowerAllocsPerInst(t *testing.T) {
	const ceiling, bytesCeiling = 7.0, 490.0
	ast, err := lang.Parse(workload.Generate(allocSpec))
	if err != nil {
		t.Fatal(err)
	}
	var p *Program
	allocs, bytes := allocsAndBytesPerRun(5, func() {
		if p, err = Lower(ast, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	n := float64(p.NumInsts())
	t.Logf("%.0f allocations and %.0f bytes for %d instructions: %.2f and %.0f per instruction",
		allocs, bytes, p.NumInsts(), allocs/n, bytes/n)
	if allocs/n > ceiling {
		t.Errorf("Lower makes %.2f allocations per instruction, ceiling %.0f", allocs/n, ceiling)
	}
	if bytes/n > bytesCeiling {
		t.Errorf("Lower allocates %.0f bytes per instruction, ceiling %.0f", bytes/n, bytesCeiling)
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

// TestInstSize pins the instruction's size. Lowering allocates one per
// label, and every analysis keeps them all live: 136 bytes, down from
// 248, by sharing one slot among the name operands (field, mutex,
// condition variable, operator), one operand list between the operands
// and the φ guards, table indexes for the clone name and lock set, and
// 32-bit thread ids.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 136 {
		t.Errorf("Inst is %d bytes, ceiling 136", n)
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
