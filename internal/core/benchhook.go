package core

import (
	"canary/internal/ir"
	"canary/internal/slab"
	"canary/internal/vfg"
)

// This file holds the benchmarking entry points of the builder: the hotpath
// experiment (internal/bench) and the stage micro-benchmarks need to cost
// one Alg. 1 or Alg. 2 round in isolation, which the public Build API
// (whole fixpoint only) cannot express. The hooks reuse exactly the
// production round code; they add no third code path.

// NewBenchBuilder returns a builder over prog with its indexes built and
// every thread dirty — the state BuildContext is in when it enters the
// first fixpoint round — without running any analysis.
func NewBenchBuilder(prog *ir.Program, opt BuildOptions) *Builder {
	return newBuilder(prog, opt.withDefaults())
}

// BenchReset rewinds the builder to its pre-fixpoint state (empty points-to
// graph, empty VFG, every thread dirty) so a benchmark loop can replay the
// first round repeatedly against identical input.
func (b *Builder) BenchReset() {
	b.G = vfg.New(b.Prog)
	b.pts = make([]ptsRow, len(b.Prog.Vars)+1)
	b.rows = slab.Slab[ptsEntry]{}
	b.ptsItems = 0
	b.escaped = make([]bool, len(b.Prog.Objects)+1)
	for i := range b.dirty {
		b.dirty[i] = true
	}
	b.Stats = BuildStats{}
}

// BenchDataDepRound runs one Alg. 1 round on one worker — the passes over
// every dirty thread plus the sequential effect replay, exactly as the
// build runs it — and reports whether it progressed.
func (b *Builder) BenchDataDepRound() bool {
	return b.dataDepRound(1)
}

// BenchInterferenceRound runs one Alg. 2 round (escape analysis plus the
// interference pass) sequentially and reports whether it progressed.
func (b *Builder) BenchInterferenceRound() bool {
	b.escapeAnalysis()
	return b.interferencePass(1)
}
