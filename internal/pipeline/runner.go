package pipeline

import (
	"context"
	"fmt"
	"time"
)

// Span is the structured trace record of one stage execution: what ran,
// for how long, how much of its step budget it consumed, and how much
// cached work it reused. Wall times are measured on the monotonic clock
// and are explicitly OUTSIDE the determinism contract — byte-identical
// runs may carry different spans.
type Span struct {
	// Stage is the canonical stage name (a registry name).
	Stage string
	// Wall is the stage's wall-clock duration.
	Wall time.Duration
	// Steps counts the abstract work units the stage consumed (fixpoint
	// iterations, DFS steps, functions re-analyzed — stage-defined).
	Steps int64
	// Budget is the configured step budget of the stage's governing
	// dimension, 0 when the stage ran ungoverned.
	Budget int64
	// CacheHits counts reused units of cached work (summary hits, guard
	// interner hits, verdict hits — stage-defined).
	CacheHits uint64
}

// BudgetRemaining returns the unconsumed part of the stage's step budget,
// or -1 when the stage ran ungoverned.
func (s Span) BudgetRemaining() int64 {
	if s.Budget <= 0 {
		return -1
	}
	if rem := s.Budget - s.Steps; rem > 0 {
		return rem
	}
	return 0
}

// PanicError is the runner's capture of a panic inside a stage function.
// Callers classify it (errors.As) and convert it to their public
// internal-error form; Value carries the original panic payload.
type PanicError struct {
	Stage string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: panic in stage %s: %v", e.Stage, e.Value)
}

// Runner executes stage functions under the uniform cross-cutting
// wrapper and accumulates their trace spans. A Runner serves one
// analysis; it is not safe for concurrent Run calls (stages of one
// analysis run in pipeline order).
type Runner struct {
	inject func(site string) error
	spans  []Span
}

// NewRunner returns a Runner whose entry-site fault injection is
// delegated to inject (typically failpoint.Inject). A nil inject
// disables injection. The runner takes the hook as a parameter — rather
// than importing the failpoint registry — so pipeline stays a leaf
// package that failpoint itself can import for its site list.
func NewRunner(inject func(site string) error) *Runner {
	return &Runner{inject: inject}
}

// Run executes fn as the named stage: it checkpoints ctx, fires the
// stage's entry failpoint site (if the stage declares one), times fn on
// the monotonic clock, converts a panic inside fn into a *PanicError,
// and records the stage's span. fn receives the span under construction
// and fills in its Steps/Budget/CacheHits before returning; Stage is
// owned by the runner, and Wall is filled by the runner unless fn set it
// itself (a stage whose own instrumentation splits its time across
// recorded sub-spans pre-sets the residual, which may be zero). The span is recorded even
// when fn fails partway, so traces of degraded or aborted runs still
// show where time went.
func (r *Runner) Run(ctx context.Context, stageName string, fn func(*Span) error) error {
	stage := mustStage(stageName)
	if err := ctx.Err(); err != nil {
		return err
	}
	// A negative Wall marks "not set by fn", so a preset zero residual is
	// kept rather than replaced by the stage's whole wall time.
	span := Span{Stage: stage.Name, Wall: -1}
	start := time.Now()
	// The entry injection runs inside the recovered section too: a
	// panic-mode failpoint at a stage entry must surface as the same
	// *PanicError a panic inside the stage would.
	err := r.runRecovered(stage.Name, &span, func(sp *Span) error {
		if r.inject != nil && stage.EntrySite != "" {
			if ferr := r.inject(stage.EntrySite); ferr != nil {
				return ferr
			}
		}
		return fn(sp)
	})
	if span.Wall < 0 {
		span.Wall = time.Since(start)
	}
	r.spans = append(r.spans, span)
	return err
}

// runRecovered isolates the recover so Run's own bookkeeping (span
// recording) happens outside the deferred path.
func (r *Runner) runRecovered(stageName string, span *Span, fn func(*Span) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Stage: stageName, Value: rec}
		}
	}()
	return fn(span)
}

// Record appends an externally measured span (a sub-stage timed inside a
// larger run, e.g. the data-dependence pass inside the VFG build). The
// span's Stage must be a registry name.
func (r *Runner) Record(span Span) {
	mustStage(span.Stage)
	r.spans = append(r.spans, span)
}

// Trace returns the recorded spans rearranged into registry (pipeline)
// order. Spans of stages that never ran are absent; a stage recorded
// twice keeps both spans adjacent in first-recorded order.
func (r *Runner) Trace() []Span {
	out := make([]Span, 0, len(r.spans))
	for _, s := range stages {
		for _, sp := range r.spans {
			if sp.Stage == s.Name {
				out = append(out, sp)
			}
		}
	}
	return out
}
