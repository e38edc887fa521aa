package ir_test

import (
	"strings"
	"testing"

	"canary/internal/core"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// TestLoweringDotDeterministic lowers every catalogue shape twice in one
// process and requires the same rendered VFG both times. φ emission order
// fixes the φ labels and SSA variable numbers the DOT output shows, so a
// join that emitted its φs in map order rendered differently run to run.
func TestLoweringDotDeterministic(t *testing.T) {
	render := func(ast *lang.Program) string {
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := core.Build(prog, core.DefaultBuild()).G.WriteDot(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, p := range workload.Projects(0) {
		ast, err := lang.Parse(workload.Generate(p.Spec))
		if err != nil {
			t.Fatalf("%s: %v", p.Spec.Name, err)
		}
		if render(ast) != render(ast) {
			t.Errorf("%s: two lowerings render different VFGs", p.Spec.Name)
		}
	}
}
