package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRegistryOrder pins the registry to the paper's pipeline: eight
// stages in the fixed §3–§5 order. Everything downstream (Degraded
// ordering, trace ordering, metrics labels) assumes exactly this list.
func TestRegistryOrder(t *testing.T) {
	want := []string{
		StageParse, StageLower, StagePTA, StageDataDep,
		StageInterference, StageMHP, StageVFG, StageCheck,
	}
	if got := StageNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StageNames() = %v, want %v", got, want)
	}
	if got := len(Stages()); got != len(want) {
		t.Fatalf("Stages() has %d entries, want %d", got, len(want))
	}
	for _, st := range Stages() {
		if st.MetricsLabel() != st.Name {
			t.Errorf("stage %s: metrics label %q != name", st.Name, st.MetricsLabel())
		}
	}
}

// TestBudgetDimensionsOrder pins the one definition of Degraded ordering:
// dimensions appear where their stage appears, in declaration order.
func TestBudgetDimensionsOrder(t *testing.T) {
	want := []string{BudgetFixpoint, BudgetSearch, BudgetFormula, BudgetSolve}
	if got := BudgetDimensions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BudgetDimensions() = %v, want %v", got, want)
	}
}

// TestBudgetReasons pins the canonical report-reason strings.
func TestBudgetReasons(t *testing.T) {
	for _, dim := range BudgetDimensions() {
		want := "budget-exhausted: " + dim
		if got := BudgetReason(dim); got != want {
			t.Errorf("BudgetReason(%q) = %q, want %q", dim, got, want)
		}
	}
	if ReasonSolveExhausted != BudgetReason(BudgetSolve) {
		t.Errorf("ReasonSolveExhausted = %q", ReasonSolveExhausted)
	}
}

// TestFailpointSites checks the derived site list: stage sites in
// pipeline order, aux sites after, no duplicates, every EntrySite and
// every declared stage site present.
func TestFailpointSites(t *testing.T) {
	sites := FailpointSites()
	seen := make(map[string]bool)
	for _, s := range sites {
		if seen[s] {
			t.Errorf("duplicate site %q", s)
		}
		seen[s] = true
	}
	for _, st := range Stages() {
		if st.EntrySite != "" && !seen[st.EntrySite] {
			t.Errorf("stage %s entry site %q missing from FailpointSites()", st.Name, st.EntrySite)
		}
		for _, site := range st.Sites {
			if !seen[site] {
				t.Errorf("stage %s site %q missing from FailpointSites()", st.Name, site)
			}
		}
	}
	for _, site := range AuxSites() {
		if !seen[site] {
			t.Errorf("aux site %q missing from FailpointSites()", site)
		}
	}
}

// TestByName covers lookup and the mustStage guard.
func TestByName(t *testing.T) {
	if st, ok := ByName(StageVFG); !ok || st.Name != StageVFG {
		t.Fatalf("ByName(vfg) = %+v, %v", st, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown stage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mustStage did not panic on an unknown name")
		}
	}()
	mustStage("nope")
}

// TestRunnerSpans checks the happy path: fn fills the span, the runner
// times it, and Trace returns registry order regardless of run order.
func TestRunnerSpans(t *testing.T) {
	r := NewRunner(nil)
	ctx := context.Background()
	// Run check before parse to prove Trace re-sorts.
	if err := r.Run(ctx, StageCheck, func(sp *Span) error {
		sp.Steps, sp.Budget, sp.CacheHits = 7, 10, 3
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(ctx, StageParse, func(sp *Span) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr := r.Trace()
	if len(tr) != 2 || tr[0].Stage != StageParse || tr[1].Stage != StageCheck {
		t.Fatalf("Trace() = %+v, want parse then check", tr)
	}
	if tr[1].Steps != 7 || tr[1].Budget != 10 || tr[1].CacheHits != 3 {
		t.Errorf("check span lost fn's fields: %+v", tr[1])
	}
	if tr[1].BudgetRemaining() != 3 {
		t.Errorf("BudgetRemaining() = %d, want 3", tr[1].BudgetRemaining())
	}
	if tr[0].BudgetRemaining() != -1 {
		t.Errorf("ungoverned BudgetRemaining() = %d, want -1", tr[0].BudgetRemaining())
	}
	if tr[0].Wall <= 0 || tr[1].Wall <= 0 {
		t.Errorf("runner must fill Wall: %+v", tr)
	}
}

// TestRunnerPresetWall checks that a stage pre-setting its residual wall
// time (the vfg stage does) is not overwritten by the runner, including a
// residual of zero.
func TestRunnerPresetWall(t *testing.T) {
	for _, preset := range []time.Duration{42 * time.Hour, 0} {
		r := NewRunner(nil)
		if err := r.Run(context.Background(), StageVFG, func(sp *Span) error {
			time.Sleep(time.Millisecond)
			sp.Wall = preset
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := r.Trace()[0].Wall; got != preset {
			t.Errorf("preset Wall %v overwritten: %v", preset, got)
		}
	}
}

// TestRunnerCancellation: a done context stops the stage before fn runs
// and records no span.
func TestRunnerCancellation(t *testing.T) {
	r := NewRunner(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := r.Run(ctx, StageParse, func(sp *Span) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran || len(r.Trace()) != 0 {
		t.Error("cancelled stage must not run or record a span")
	}
}

// TestRunnerPanic: a panic inside fn surfaces as *PanicError naming the
// stage, and the span is still recorded.
func TestRunnerPanic(t *testing.T) {
	r := NewRunner(nil)
	err := r.Run(context.Background(), StageLower, func(sp *Span) error {
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != StageLower || pe.Value != "boom" {
		t.Fatalf("err = %v, want PanicError{lower, boom}", err)
	}
	if !strings.Contains(pe.Error(), "panic in stage lower") {
		t.Errorf("PanicError message: %q", pe.Error())
	}
	if len(r.Trace()) != 1 {
		t.Error("panicking stage must still record its span")
	}
}

// TestRunnerEntryInjection: the stage's entry site fires through the
// inject hook before fn, an injected error skips fn, and an injected
// panic becomes the same *PanicError a stage panic would.
func TestRunnerEntryInjection(t *testing.T) {
	injected := errors.New("injected")
	var fired []string
	r := NewRunner(func(site string) error {
		fired = append(fired, site)
		if site == SiteParse {
			return injected
		}
		if site == SiteLower {
			panic("injected panic")
		}
		return nil
	})
	ctx := context.Background()

	ran := false
	if err := r.Run(ctx, StageParse, func(sp *Span) error { ran = true; return nil }); !errors.Is(err, injected) {
		t.Fatalf("parse err = %v, want injected", err)
	}
	if ran {
		t.Error("fn must not run after an injected entry error")
	}

	err := r.Run(ctx, StageLower, func(sp *Span) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != StageLower {
		t.Fatalf("lower err = %v, want PanicError", err)
	}

	// A stage without an entry site never calls inject.
	if err := r.Run(ctx, StageMHP, func(sp *Span) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []string{SiteParse, SiteLower}) {
		t.Errorf("fired sites = %v", fired)
	}
}

// TestRunnerRecord: externally measured sub-spans join the trace in
// registry order; unknown names are rejected.
func TestRunnerRecord(t *testing.T) {
	r := NewRunner(nil)
	r.Record(Span{Stage: StageMHP, Wall: time.Millisecond})
	r.Record(Span{Stage: StageDataDep, Wall: 2 * time.Millisecond})
	tr := r.Trace()
	if len(tr) != 2 || tr[0].Stage != StageDataDep || tr[1].Stage != StageMHP {
		t.Fatalf("Trace() = %+v, want datadep then mhp", tr)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Record accepted an unknown stage")
		}
	}()
	r.Record(Span{Stage: "nope"})
}
