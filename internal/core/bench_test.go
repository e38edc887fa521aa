package core

import (
	"testing"

	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// BenchmarkInterferenceEval measures one Alg. 2 round (escape analysis plus
// the interference pass) on a catalogue-scale subject, on top of a fresh
// Alg. 1 round. The dense LocIndex tables keep the per-location bookkeeping
// in slices indexed by integer instead of maps keyed by (object, field)
// structs; allocs/op is the series to watch. The loop reuses one Program
// and one Builder, so the MHP analysis and anything memoized on the
// Program are setup here, not measured: BenchmarkBuild costs the whole
// build on a fresh lowering.
func BenchmarkInterferenceEval(b *testing.B) {
	b.ReportAllocs()
	src := workload.Generate(workload.SizeSweep(1, 1200, 1200)[0])
	ast, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	bld := NewBenchBuilder(prog, DefaultBuild())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.BenchReset()
		bld.BenchDataDepRound()
		bld.BenchInterferenceRound()
	}
}

var buildSink *Builder

// BenchmarkBuild measures one whole build (MHP analysis, every Alg. 1 and
// Alg. 2 round) of perfbench's edit-session program at seed 1631, on one
// worker. Each iteration lowers a fresh Program outside the timer, as every
// semantic save does, so nothing memoized on a Program stays warm across
// iterations.
func BenchmarkBuild(b *testing.B) {
	ast, err := lang.Parse(workload.Generate(editSessionSpec(1631)))
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultBuild()
	opt.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		buildSink = Build(prog, opt)
	}
}
