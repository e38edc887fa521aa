package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"canary"
	"canary/internal/core"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/pipeline"
)

// buildCLI compiles the canary binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "canary-cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.cn")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const buggy = `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`

const clean = `
func main() {
  x = malloc();
  c = *x;
  print(*c);
}
`

func TestCLIReportsBugWithExitCode(t *testing.T) {
	bin := buildCLI(t)
	prog := writeProgram(t, buggy)
	out, err := exec.Command(bin, "-stats", "-trace", prog).CombinedOutput()
	if err == nil {
		t.Fatal("expected exit status 1 for a buggy program")
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\n%s", err, out)
	}
	s := string(out)
	for _, needle := range []string{"use-after-free", "1 report(s)", "vfg:", "guard:"} {
		if !strings.Contains(s, needle) {
			t.Errorf("output missing %q:\n%s", needle, s)
		}
	}
	// -trace prints the per-stage pipeline trace: one span line per
	// registry stage.
	if !strings.Contains(s, "pipeline trace:") {
		t.Errorf("output missing the pipeline trace header:\n%s", s)
	}
	for _, stage := range pipeline.StageNames() {
		if !strings.Contains(s, "\n  "+stage) {
			t.Errorf("pipeline trace missing a span for stage %q:\n%s", stage, s)
		}
	}
}

func TestCLICleanProgramExitsZero(t *testing.T) {
	bin := buildCLI(t)
	prog := writeProgram(t, clean)
	out, err := exec.Command(bin, prog).CombinedOutput()
	if err != nil {
		t.Fatalf("clean program should exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 report(s)") {
		t.Errorf("output: %s", out)
	}
}

func TestCLIUsageAndErrors(t *testing.T) {
	bin := buildCLI(t)
	if _, err := exec.Command(bin).CombinedOutput(); err == nil {
		t.Error("no-args should fail with usage")
	}
	if _, err := exec.Command(bin, "does-not-exist.cn").CombinedOutput(); err == nil {
		t.Error("missing file should fail")
	}
	bad := writeProgram(t, "func {")
	if out, err := exec.Command(bin, bad).CombinedOutput(); err == nil {
		t.Errorf("parse error should fail: %s", out)
	}
	prog := writeProgram(t, clean)
	if out, err := exec.Command(bin, "-memory-model", "bogus", prog).CombinedOutput(); err == nil {
		t.Errorf("bad memory model should fail: %s", out)
	}
}

func TestCLIJSONAndDot(t *testing.T) {
	bin := buildCLI(t)
	prog := writeProgram(t, buggy)
	dotPath := filepath.Join(t.TempDir(), "vfg.dot")
	out, err := exec.Command(bin, "-json", "-dot", dotPath, prog).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\n%s", err, out)
	}
	var decoded struct {
		Reports []struct {
			Kind string
		}
		VFG struct {
			Nodes int
		}
	}
	if jerr := jsonUnmarshal(out, &decoded); jerr != nil {
		t.Fatalf("invalid JSON: %v\n%s", jerr, out)
	}
	if len(decoded.Reports) != 1 || decoded.Reports[0].Kind != "use-after-free" {
		t.Errorf("JSON reports: %+v", decoded.Reports)
	}
	if decoded.VFG.Nodes == 0 {
		t.Error("JSON stats missing")
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	s := string(dot)
	for _, needle := range []string{"digraph vfg", "style=dashed", "->"} {
		if !strings.Contains(s, needle) {
			t.Errorf("DOT output missing %q", needle)
		}
	}
}

func jsonUnmarshal(data []byte, v interface{}) error {
	return json.Unmarshal(data, v)
}

func TestCLICheckerSelectionAndFlags(t *testing.T) {
	bin := buildCLI(t)
	prog := writeProgram(t, buggy)
	// Selecting only the taint checker suppresses the UAF report.
	out, err := exec.Command(bin, "-checkers", "taint-leak", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("taint-only scan should exit 0: %v\n%s", err, out)
	}
	// Intra-thread mode on a sequential UAF.
	seq := writeProgram(t, `
func main() {
  p = malloc();
  free(p);
  print(*p);
}
`)
	out, err = exec.Command(bin, "-intra", seq).CombinedOutput()
	if err == nil {
		t.Fatalf("sequential UAF with -intra should exit 1:\n%s", out)
	}
	if !strings.Contains(string(out), "1 report(s)") {
		t.Errorf("output: %s", out)
	}
}

// TestCLIFailOnReportGate pins the exit-code contract: -fail-on-report
// (default on) exits 1 on any report; =false downgrades reports to
// informational output and exits 0; analysis errors stay 2 either way.
func TestCLIFailOnReportGate(t *testing.T) {
	bin := buildCLI(t)
	prog := writeProgram(t, buggy)

	// Default: the gate trips.
	if _, err := exec.Command(bin, prog).CombinedOutput(); err == nil {
		t.Fatal("default -fail-on-report should exit 1 on a report")
	}

	// Disabled: reports still print, exit is 0.
	out, err := exec.Command(bin, "-fail-on-report=false", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("-fail-on-report=false should exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1 report(s)") {
		t.Errorf("reports must still print with the gate off:\n%s", out)
	}

	// JSON path honors the gate too.
	out, err = exec.Command(bin, "-fail-on-report=false", "-json", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("-json -fail-on-report=false should exit 0: %v\n%s", err, out)
	}
	var decoded struct{ Reports []struct{ Kind string } }
	if jerr := jsonUnmarshal(out, &decoded); jerr != nil {
		t.Fatalf("invalid JSON: %v", jerr)
	}
	if len(decoded.Reports) != 1 {
		t.Errorf("JSON reports = %+v", decoded.Reports)
	}

	// Errors are never downgraded.
	if _, err := exec.Command(bin, "-fail-on-report=false", "missing.cn").CombinedOutput(); err == nil {
		t.Error("analysis errors must keep exit 2 with the gate off")
	}
}

// referenceDot renders src's VFG by the direct parse, lower and build
// sequence, independent of the analysis spine the CLI goes through.
func referenceDot(t *testing.T, src string) string {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := canary.DefaultOptions()
	prog, err := ir.Lower(ast, ir.Options{UnrollDepth: opt.UnrollDepth, InlineDepth: opt.InlineDepth, Entry: opt.Entry})
	if err != nil {
		t.Fatal(err)
	}
	b := core.Build(prog, core.BuildOptions{EnableMHP: opt.EnableMHP, GuardCap: opt.GuardCap, Workers: opt.Workers})
	var sb strings.Builder
	if err := b.G.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCLIDotMatchesReference checks that -dot writes, for every corpus
// program, exactly the graph a direct build of it renders.
func TestCLIDotMatchesReference(t *testing.T) {
	bin := buildCLI(t)
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.cn"))
	if err != nil || len(files) < 10 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		dotPath := filepath.Join(t.TempDir(), "vfg.dot")
		out, err := exec.Command(bin, "-fail-on-report=false", "-dot", dotPath, file).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", file, err, out)
		}
		got, err := os.ReadFile(dotPath)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceDot(t, string(data)); string(got) != want {
			t.Errorf("%s: -dot output differs from the reference build (%d vs %d bytes)", file, len(got), len(want))
		}
	}
}
