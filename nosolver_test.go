package canary

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"canary/internal/workload"
)

// TestDefaultOptionsDecideWithoutSolver gates the premise that the checker
// has one decision path: under DefaultOptions the order-fact closure and
// smt.Presolve decide every query of the benchmark programs, so the CDCL
// solver never runs (Check.SolverQueries == 0). The programs are the
// testdata corpus, every example program, the 20 Table 1 catalogue shapes
// at a small scale, and bug-dense programs shaped like perfbench's
// serve-mixed traffic. The solver path itself is covered with
// FactPropagation off (property_test.go, the smt-solve failpoint in
// faultinject_test.go, TestCubeAndConquerSameResult).
func TestDefaultOptionsDecideWithoutSolver(t *testing.T) {
	programs := map[string]string{}
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	cnFiles, _ := filepath.Glob(filepath.Join("examples", "*", "*.cn"))
	for _, f := range append(files, cnFiles...) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		programs[f] = string(data)
	}
	for name, src := range examplePrograms(t) {
		programs[name] = src
	}
	for _, p := range workload.Projects(0.0002) {
		programs["catalogue/"+p.Name] = workload.Generate(p.Spec)
	}
	for seed := int64(1); seed <= 3; seed++ {
		programs[fmt.Sprintf("bug-dense/%d", seed)] = workload.Generate(workload.Spec{
			Name: "bug-dense", Lines: 3000, Seed: seed,
			TruePositives: 16, CanaryFPs: 8, Fig2Traps: 32, OrderTraps: 16, LockTraps: 16, SaberTraps: 8, Fan: 8,
		})
	}

	paths := 0
	for name, src := range programs {
		res, err := Analyze(src, DefaultOptions())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Check.SolverQueries != 0 {
			t.Errorf("%s: %d solver queries under DefaultOptions, want 0", name, res.Check.SolverQueries)
		}
		paths += res.Check.PathsExamined
	}
	if paths == 0 {
		t.Fatal("no program examined a candidate path; the gate checks nothing")
	}
	t.Logf("%d programs, %d candidate paths, 0 solver queries", len(programs), paths)
}

// examplePrograms returns the canary programs the examples embed: every
// package-level raw-string constant of examples/*/main.go.
func examplePrograms(t *testing.T) map[string]string {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("examples: %v (%d files)", err, len(mains))
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, m := range mains {
		f, err := parser.ParseFile(fset, m, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, v := range vs.Values {
					lit, ok := v.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING || lit.Value[0] != '`' {
						continue
					}
					src, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[m+":"+vs.Names[i].Name] = src
				}
			}
		}
	}
	if len(out) < len(mains)-1 {
		t.Fatalf("found %d embedded programs in %d examples", len(out), len(mains))
	}
	return out
}
