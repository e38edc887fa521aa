// Package pipeline is the single definition of Canary's staged analysis
// pipeline: an ordered registry of Stage descriptors carrying each stage's
// canonical name, the budget dimensions governed inside it, the
// fault-injection sites that fire inside it, and its metrics label — plus
// an instrumented Runner that executes a stage function under the uniform
// cross-cutting wrapper (checkpoint cancellation, entry-site fault
// injection, panic capture, monotonic span timing).
//
// Every other list of stage identity derives from this registry instead of
// being maintained by hand: Result.Degraded ordering, the
// "budget-exhausted: <dimension>" report reasons, failpoint.Sites(), the
// canaryd per-stage latency histogram labels, and the spans of
// Result.Trace. The registry is deliberately a leaf package (stdlib only)
// so the frontend, the core analyses, the fault-injection registry, and
// the daemon can all import it without cycles.
package pipeline

// Canonical stage names, in the fixed order of the paper's pipeline
// (§3–§5): parse → lower → PTA summaries → Alg. 1 data dependence →
// Alg. 2 interference fixpoint → MHP → guarded-VFG construction → guarded
// source–sink checking. These are the only places the names are spelled;
// everything else references the constants.
const (
	StageParse        = "parse"
	StageLower        = "lower"
	StagePTA          = "pta"
	StageDataDep      = "datadep"
	StageInterference = "interference"
	StageMHP          = "mhp"
	StageVFG          = "vfg"
	StageCheck        = "check"
)

// Budget dimensions: the step-counted resource governors of
// canary.Budgets, named by what they bound. Their pipeline order (the
// order BudgetDimensions returns, which is the order Result.Degraded
// lists exhausted dimensions in) derives from the registry: a stage's
// dimensions appear where the stage appears.
const (
	BudgetFixpoint = "fixpoint"
	BudgetSearch   = "search"
	BudgetFormula  = "formula"
	BudgetSolve    = "solve"
)

// budgetReasonPrefix is the shared prefix of every budget-exhaustion
// report reason.
const budgetReasonPrefix = "budget-exhausted: "

// The canonical inconclusive-report reasons, one per budget dimension.
// canary.Report.Reason and core.Report.Reason carry exactly these strings.
const (
	ReasonFixpointExhausted = budgetReasonPrefix + BudgetFixpoint
	ReasonSearchExhausted   = budgetReasonPrefix + BudgetSearch
	ReasonFormulaExhausted  = budgetReasonPrefix + BudgetFormula
	ReasonSolveExhausted    = budgetReasonPrefix + BudgetSolve
)

// BudgetReason renders the canonical report reason of one exhausted
// budget dimension.
func BudgetReason(dim string) string { return budgetReasonPrefix + dim }

// Fault-injection site names. A site is either pinned to the stage it
// fires inside (Stage.Sites) or, for the cache and daemon layers that sit
// outside the per-analysis pipeline, listed in AuxSites.
const (
	SiteParse         = "parse"          // parse stage entry (runner-injected)
	SiteLower         = "lower"          // lower stage entry (runner-injected)
	SitePTAFixpoint   = "pta-fixpoint"   // pta summary fixpoint, per round
	SiteBuildFixpoint = "build-fixpoint" // VFG outer fixpoint, per iteration
	SiteGuardEval     = "guard-eval"     // guard assembly in checkCtx.validate
	SiteSMTSolve      = "smt-solve"      // immediately before a real solver run
	SiteCacheRead     = "cache-read"     // cache.Store.Get (fault → miss)
	SiteCacheWrite    = "cache-write"    // cache.Store.Put (fault → skip)
	SiteJobDequeue    = "job-dequeue"    // canaryd worker, after dequeue
	SiteDiskRead      = "disk-read"      // diskstore read (fault → miss)
	SiteDiskWrite     = "disk-write"     // diskstore write (fault → entry stays cold)
	SiteDiskCorrupt   = "disk-corrupt"   // diskstore read-side bit flip (checksum → miss)
)

// Stage is one descriptor of the ordered pipeline registry. The metrics
// label of a stage is its Name: canaryd exposes
// canaryd_stage_latency_seconds{stage="<Name>"} for every registered
// stage.
type Stage struct {
	// Name is the canonical stage name (StageParse ... StageCheck).
	Name string
	// Budgets lists the budget dimensions enforced inside this stage, in
	// degradation order. Empty for ungoverned stages.
	Budgets []string
	// Sites lists the fault-injection sites that fire inside this stage
	// (including EntrySite when set).
	Sites []string
	// EntrySite, when non-empty, is the failpoint site the Runner injects
	// at the stage's entry, before the stage function runs. Interior
	// sites (per-round, per-query) stay inside the stage code and are
	// merely declared in Sites.
	EntrySite string
}

// MetricsLabel returns the stage's label in the canaryd latency
// histograms (the canonical name).
func (s Stage) MetricsLabel() string { return s.Name }

// stages is THE registry: the one ordered stage list everything else
// derives from. Registration order is pipeline order — it defines
// Result.Degraded ordering, Result.Trace span ordering, and the metrics
// exposition order.
var stages = []Stage{
	{Name: StageParse, EntrySite: SiteParse, Sites: []string{SiteParse}},
	{Name: StageLower, EntrySite: SiteLower, Sites: []string{SiteLower}},
	{Name: StagePTA, Sites: []string{SitePTAFixpoint}},
	{Name: StageDataDep},
	{Name: StageInterference},
	{Name: StageMHP},
	{Name: StageVFG, Budgets: []string{BudgetFixpoint}, Sites: []string{SiteBuildFixpoint}},
	{Name: StageCheck,
		Budgets: []string{BudgetSearch, BudgetFormula, BudgetSolve},
		Sites:   []string{SiteGuardEval, SiteSMTSolve}},
}

// auxSites are the fault-injection sites of the layers around the
// per-analysis pipeline: the content/result cache, the persistent disk
// store, and the daemon's job scheduler. They are part of the registry's
// site namespace (so failpoint.Sites() still derives from one list)
// without belonging to a stage.
var auxSites = []string{
	SiteCacheRead, SiteCacheWrite, SiteJobDequeue,
	SiteDiskRead, SiteDiskWrite, SiteDiskCorrupt,
}

// Stages returns the ordered registry. The slice is a copy; descriptors
// share the registry's inner slices and must not be mutated.
func Stages() []Stage { return append([]Stage(nil), stages...) }

// StageNames returns the canonical stage names in pipeline order.
func StageNames() []string {
	out := make([]string, len(stages))
	for i, s := range stages {
		out[i] = s.Name
	}
	return out
}

// ByName looks a stage descriptor up by canonical name.
func ByName(name string) (Stage, bool) {
	for _, s := range stages {
		if s.Name == name {
			return s, true
		}
	}
	return Stage{}, false
}

// mustStage is ByName for the compile-time constants the runner is called
// with; an unknown name is a programming error, not an input error.
func mustStage(name string) Stage {
	s, ok := ByName(name)
	if !ok {
		panic("pipeline: unknown stage " + name)
	}
	return s
}

// BudgetDimensions returns every budget dimension in pipeline order: the
// registry is walked stage by stage and each stage contributes its
// dimensions in declaration order. This is the one definition of the
// Result.Degraded ordering.
func BudgetDimensions() []string {
	var out []string
	for _, s := range stages {
		out = append(out, s.Budgets...)
	}
	return out
}

// FailpointSites returns every fault-injection site name of the registry —
// the per-stage sites in pipeline order followed by the aux sites. The
// failpoint package's site list is exactly this.
func FailpointSites() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(site string) {
		if !seen[site] {
			seen[site] = true
			out = append(out, site)
		}
	}
	for _, s := range stages {
		for _, site := range s.Sites {
			add(site)
		}
	}
	for _, site := range auxSites {
		add(site)
	}
	return out
}

// AuxSites returns the non-stage sites (cache and daemon layers).
func AuxSites() []string { return append([]string(nil), auxSites...) }
