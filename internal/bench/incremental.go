package bench

import (
	"fmt"
	"strings"

	"canary"
	"canary/internal/lang"
	"canary/internal/workload"
)

// IncrementalResult measures the one-edit re-analysis scenario: a program
// is analyzed, one statement is inserted into one function, and the
// edited program is analyzed both cold (no warm state) and warm (through
// a Session primed with the original). The contract under test, both
// parts ErrGate gates: warm output is byte-identical to cold, and
// strictly fewer functions than the program has re-enter the summary
// fixpoint.
type IncrementalResult struct {
	Lines int
	// Funcs is the number of functions in the edited program;
	// FuncsReanalyzed of the warm run must come in strictly below it.
	Funcs int
	// Warm-run reuse counters.
	SummaryHits     int
	FuncsReanalyzed int
	VerdictHits     int
	PairsRechecked  int
	TrivialSolves   int
}

// incrementalEdit is the statement inserted by the one-function mutation.
const incrementalEdit = "  incpad0 = 1;"

// mutateMain appends one benign statement at the end of main (the last
// function of a generated subject), modelling the smallest real edit: one
// function's body changes, its digest and dependency key change, and the
// program's instruction labels are re-assigned.
func mutateMain(src string) (string, error) {
	i := strings.LastIndex(src, "}")
	if i < 0 || !strings.Contains(src, "func main()") {
		return "", fmt.Errorf("incremental experiment: no main in subject")
	}
	return src[:i] + incrementalEdit + "\n" + src[i:], nil
}

// renderReports folds every observable field of the reports into one
// string, so byte-equality of renders is byte-equality of results.
func renderReports(res *canary.Result) string {
	return fmt.Sprintf("%#v", res.Reports)
}

// RunIncremental analyzes spec after a one-statement edit to main cold,
// then warm through a fresh Session primed with the pre-edit program,
// and gates the warm run on the cold one.
func (e *Experiments) RunIncremental(spec workload.Spec) (IncrementalResult, error) {
	res := IncrementalResult{Lines: spec.Lines}
	orig := workload.Generate(spec)
	edited, err := mutateMain(orig)
	if err != nil {
		return res, err
	}
	ast, err := lang.Parse(edited)
	if err != nil {
		return res, fmt.Errorf("incremental experiment: edited subject does not parse: %w", err)
	}
	res.Funcs = len(ast.Funcs)
	opt := canary.DefaultOptions()
	// Run with the order-fact closure disabled so realizability decisions
	// actually reach the solver layer: with it on, the synthetic subjects'
	// few candidate paths are all settled by fact propagation or the
	// presolve fast path and the verdict store has nothing to absorb. This
	// is the configuration where cross-run verdict reuse is measurable.
	opt.FactPropagation = false

	cold, err := canary.Analyze(edited, opt)
	if err != nil {
		return res, err
	}
	sess := canary.NewSession()
	if _, err := sess.Analyze(orig, opt); err != nil {
		return res, err
	}
	warm, err := sess.Analyze(edited, opt)
	if err != nil {
		return res, err
	}
	res.SummaryHits = warm.VFG.SummaryHits
	res.FuncsReanalyzed = warm.VFG.FuncsReanalyzed
	res.VerdictHits = warm.Check.VerdictHits
	res.PairsRechecked = warm.Check.PairsRechecked
	res.TrivialSolves = warm.Check.TrivialSolves
	e.logf("  incremental: summaries %d/%d reused, %d reanalyzed, %d verdict hits\n",
		res.SummaryHits, res.Funcs, res.FuncsReanalyzed, res.VerdictHits)
	if renderReports(warm) != renderReports(cold) {
		return res, gatef("warm reports after the edit differ from a cold analysis")
	}
	if res.FuncsReanalyzed >= res.Funcs {
		return res, gatef("warm run reanalyzed %d of %d functions after a one-statement edit", res.FuncsReanalyzed, res.Funcs)
	}
	return res, nil
}
