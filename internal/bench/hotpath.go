package bench

import (
	"fmt"
	"runtime"
	"time"

	"canary/internal/core"
	"canary/internal/guard"
	"canary/internal/lang"
	"canary/internal/pta"
	"canary/internal/workload"
)

// HotpathSection is one hot-path measurement: the steady-state cost of one
// operation of a pipeline stage, in the units `go test -bench` reports.
type HotpathSection struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	Iters       int   `json:"iters"`
}

// HotpathSide is one full sweep over the four measured hot paths: guard
// construction, the Steensgaard points-to fixpoint, one Alg. 1 data-
// dependence round, and one Alg. 2 interference round.
type HotpathSide struct {
	GuardConstruct HotpathSection `json:"guard_construct"`
	PTAFixpoint    HotpathSection `json:"pta_fixpoint"`
	DataDep        HotpathSection `json:"datadep"`
	Interference   HotpathSection `json:"interference"`
}

// HotpathResult compares the current representations against the recorded
// pre-overhaul baseline (string-keyed guard interning, map-backed points-to
// and location sets). Baseline is nil when the run's subject size differs
// from the size the baseline was recorded at.
type HotpathResult struct {
	Lines    int          `json:"lines"`
	Baseline *HotpathSide `json:"baseline,omitempty"`
	Current  HotpathSide  `json:"current"`
	// Alloc ratios are baseline allocs/op divided by current allocs/op
	// (>1 means the overhaul allocates less); 0 when no baseline applies.
	GuardAllocRatio float64 `json:"guard_alloc_ratio"`
	PTAAllocRatio   float64 `json:"pta_alloc_ratio"`
}

// hotpathBaselineLines is the subject size the checked-in baseline was
// measured at (the default -hotpath-lines).
const hotpathBaselineLines = 2600

// hotpathRecordedBaseline returns the pre-overhaul measurements, recorded
// on this machine immediately before the representation changes landed
// (string internKey guard interning, map[string]bool Steensgaard function
// sets, map[vfg.Loc] touched-sets). They are a snapshot, not reproducible
// bytes; the interesting quantity is the allocs/op ratio against Current.
func hotpathRecordedBaseline(lines int) *HotpathSide {
	if lines != hotpathBaselineLines {
		return nil
	}
	return &HotpathSide{
		GuardConstruct: HotpathSection{NsPerOp: 3700, AllocsPerOp: 43, BytesPerOp: 1073, Iters: 4000},
		PTAFixpoint:    HotpathSection{NsPerOp: 855000, AllocsPerOp: 3869, BytesPerOp: 341280, Iters: 8},
		DataDep:        HotpathSection{NsPerOp: 5200000, AllocsPerOp: 11595, BytesPerOp: 3596717, Iters: 8},
		Interference:   HotpathSection{NsPerOp: 275000, AllocsPerOp: 568, BytesPerOp: 84440, Iters: 8},
	}
}

// measureHotpath runs op iters times and reports per-op wall time and
// allocation deltas (runtime.MemStats sampling, the same counters
// b.ReportAllocs uses).
func measureHotpath(iters int, op func()) HotpathSection {
	if iters <= 0 {
		iters = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		op()
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := int64(iters)
	return HotpathSection{
		NsPerOp:     wall.Nanoseconds() / n,
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / n,
		Iters:       iters,
	}
}

// measureHotpathPaired is measureHotpath for an operation that needs
// fresh state each iteration: setup runs outside the measured window,
// op inside it. Timing each iteration directly — instead of measuring
// setup+op and subtracting a separate setup-only measure — avoids the
// delta-of-means trap where run-to-run noise in the two measures swamps
// a small op and clips its cost to zero.
func measureHotpathPaired(iters int, setup, op func()) HotpathSection {
	if iters <= 0 {
		iters = 1
	}
	runtime.GC()
	var wall time.Duration
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < iters; i++ {
		setup()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		op()
		wall += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	n := int64(iters)
	return HotpathSection{
		NsPerOp:     wall.Nanoseconds() / n,
		AllocsPerOp: int64(mallocs) / n,
		BytesPerOp:  int64(bytes) / n,
		Iters:       iters,
	}
}

// hotpathSink defeats dead-code elimination of the guard workload.
var hotpathSink *guard.Formula

// guardConstructOp builds one representative batch of alias-guard shapes
// (the Φ_alias conjunctions the interference pass constructs per candidate
// pair) over a small atom universe, so after a warm-up prefix most
// constructions are hash-cons hits — the steady state of a real build.
func guardConstructOp(bools, orders []guard.Atom) func() {
	i := uint32(0)
	return func() {
		i++
		x := i * 2654435761
		a := guard.Var(bools[x%uint32(len(bools))])
		b := guard.Var(bools[(x>>7)%uint32(len(bools))])
		c := guard.Var(bools[(x>>14)%uint32(len(bools))])
		o := guard.Var(orders[(x>>21)%uint32(len(orders))])
		φ1 := guard.Or(a, guard.Not(b))
		φ2 := guard.And(c, o)
		hotpathSink = guard.And(φ1, φ2, guard.Not(guard.And(a, guard.Not(c))))
	}
}

// maxGuardAllocs is the allocation ceiling of one guard construction: the
// pre-interning representation sat at about 43 allocs/op.
const maxGuardAllocs = 40

// RunHotpath measures the allocation-dominated hot paths of the pipeline
// on one generated subject: synthetic steady-state guard construction
// (an ErrGate gate fails it above maxGuardAllocs allocs/op),
// the whole-program Steensgaard fixpoint, and single Alg. 1 / Alg. 2
// rounds via the core bench hooks. The interference section is timed
// per iteration with the datadep round it depends on as untimed setup.
// The rounds reuse one lowered Program and one builder, so the MHP
// analysis and anything memoized on the Program are warm after the first
// iteration and never timed; core's BenchmarkBuild costs a whole build on
// a fresh lowering, as a semantic save pays it.
func (e *Experiments) RunHotpath(spec workload.Spec, guardOps, iters int) (HotpathResult, error) {
	res := HotpathResult{Lines: spec.Lines}
	if guardOps <= 0 {
		guardOps = 4000
	}
	if iters <= 0 {
		iters = 8
	}

	// Guard construction over a fixed atom universe.
	pool := guard.NewPool()
	bools := make([]guard.Atom, 16)
	for i := range bools {
		bools[i] = pool.Bool(fmt.Sprintf("θ%d", i))
	}
	orders := make([]guard.Atom, 8)
	for i := range orders {
		orders[i] = pool.Order(i, i+1)
	}
	op := guardConstructOp(bools, orders)
	op() // warm the interner with the first shapes outside the measurement
	res.Current.GuardConstruct = measureHotpath(guardOps, op)
	e.logf("  hotpath guard-construct: %d allocs/op, %d B/op, %dns/op\n",
		res.Current.GuardConstruct.AllocsPerOp, res.Current.GuardConstruct.BytesPerOp,
		res.Current.GuardConstruct.NsPerOp)
	if a := res.Current.GuardConstruct.AllocsPerOp; a > maxGuardAllocs {
		return res, gatef("guard-construct allocs/op %d exceeds the ceiling %d", a, maxGuardAllocs)
	}

	// Subject for the analysis sections.
	src := workload.Generate(spec)
	ast, err := lang.Parse(src)
	if err != nil {
		return res, fmt.Errorf("hotpath subject does not parse: %w", err)
	}
	prog, err := lowerSubject(spec)
	if err != nil {
		return res, err
	}

	res.Current.PTAFixpoint = measureHotpath(iters, func() {
		pta.AnalyzeFuncPointers(ast)
	})
	e.logf("  hotpath pta-fixpoint:    %d allocs/op, %d B/op, %dns/op\n",
		res.Current.PTAFixpoint.AllocsPerOp, res.Current.PTAFixpoint.BytesPerOp,
		res.Current.PTAFixpoint.NsPerOp)

	b := core.NewBenchBuilder(prog, core.DefaultBuild())
	res.Current.DataDep = measureHotpath(iters, func() {
		b.BenchReset()
		b.BenchDataDepRound()
	})
	e.logf("  hotpath datadep:         %d allocs/op, %d B/op, %dns/op\n",
		res.Current.DataDep.AllocsPerOp, res.Current.DataDep.BytesPerOp,
		res.Current.DataDep.NsPerOp)

	// The interference round needs a fresh datadep pass each iteration, so
	// the datadep work runs as untimed setup and only the interference
	// round is measured. (An earlier version measured a combined
	// datadep+interference loop and subtracted the datadep-only mean;
	// measurement noise between the two loops routinely exceeded the
	// interference cost and the clipped difference recorded 0 ns/op.)
	res.Current.Interference = measureHotpathPaired(iters,
		func() {
			b.BenchReset()
			b.BenchDataDepRound()
		},
		func() {
			b.BenchInterferenceRound()
		})
	e.logf("  hotpath interference:    %d allocs/op, %d B/op, %dns/op\n",
		res.Current.Interference.AllocsPerOp, res.Current.Interference.BytesPerOp,
		res.Current.Interference.NsPerOp)

	res.Baseline = hotpathRecordedBaseline(spec.Lines)
	if res.Baseline != nil {
		res.GuardAllocRatio = allocRatio(res.Baseline.GuardConstruct, res.Current.GuardConstruct)
		res.PTAAllocRatio = allocRatio(res.Baseline.PTAFixpoint, res.Current.PTAFixpoint)
	}
	return res, nil
}

func allocRatio(base, cur HotpathSection) float64 {
	if cur.AllocsPerOp <= 0 {
		cur.AllocsPerOp = 1
	}
	return float64(base.AllocsPerOp) / float64(cur.AllocsPerOp)
}
