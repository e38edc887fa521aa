package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// publishSrc has main publish a cell to a worker, which stores a fresh
// object into it; main's load of the cell then gains that object only by
// interference. USE is what main does with the loaded value.
const publishSrc = `
func main() {
  p = malloc();
  fork(t, worker, p);
  c = *p;
  USE
}

func worker(q) {
  o = malloc();
  *q = o;
}
`

// readersBuilder lowers src and returns a builder ready for its first
// fixpoint round, with the variable that main's first load defines.
func readersBuilder(t *testing.T, src string) (*Builder, ir.VarID) {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var loaded ir.VarID
	for _, inst := range prog.Insts() {
		if inst.Op == ir.OpLoad && inst.Thread == 0 {
			loaded = inst.Def
			break
		}
	}
	if loaded == 0 {
		t.Fatal("main has no load")
	}
	return newBuilder(prog, DefaultBuild().withDefaults()), loaded
}

// interfereOnce runs fixpoint rounds until a fact reaches main's load by
// interference, and returns whether that round's Alg. 2 pass dirtied main
// (Alg. 2 runs on a cleared dirty set, and Alg. 1's marks are restored
// after it).
func interfereOnce(t *testing.T, b *Builder, loaded ir.VarID) bool {
	t.Helper()
	for round := 0; round < 3; round++ {
		b.dataDepRound(1)
		if len(b.pts[loaded]) != 0 {
			t.Fatal("main's load gained facts from Alg. 1")
		}
		marked := append([]bool(nil), b.dirty...)
		for i := range b.dirty {
			b.dirty[i] = false
		}
		b.escapeAnalysis()
		b.interferencePass(1)
		if len(b.pts[loaded]) != 0 {
			return b.dirty[0]
		}
		for i, m := range marked {
			b.dirty[i] = b.dirty[i] || m
		}
	}
	t.Fatal("no fact arrived at main's load by interference")
	return false
}

// TestReadersRule pins the dirty-thread schedule of the outer fixpoint: a
// thread is re-run when another thread, or the interference pass, changes
// a points-to set it reads, and only then.
func TestReadersRule(t *testing.T) {
	t.Run("own facts do not re-dirty the producer", func(t *testing.T) {
		b, _ := readersBuilder(t, strings.Replace(publishSrc, "USE", "d = c;", 1))
		b.dataDepRound(1)
		if b.ptsItems == 0 {
			t.Fatal("the first round logged no facts")
		}
		if b.dirty[0] {
			t.Error("main is dirty after replaying only its own facts")
		}
		if !b.dirty[1] {
			t.Error("the worker reads main's cell through its parameter binding but is clean")
		}
	})
	// A fact arriving by interference at main's load dirties main exactly
	// when main's Alg. 1 pass reads the loaded variable's points-to set.
	for _, tc := range []struct {
		name, use string
		dirty     bool
	}{
		{"copied", "d = c;", true},
		{"merged by a phi", "if (k) { c = p; } print(*c);", true},
		{"loaded through", "x = *c;", true},
		{"stored through", "*c = p;", true},
		{"stored", "*p = c;", true},
		{"only freed", "free(c);", false},
		{"only dereferenced", "print(*c);", false},
	} {
		t.Run("interference on a variable main "+tc.name, func(t *testing.T) {
			b, loaded := readersBuilder(t, strings.Replace(publishSrc, "USE", tc.use, 1))
			if got := interfereOnce(t, b, loaded); got != tc.dirty {
				t.Errorf("main dirty = %v, want %v", got, tc.dirty)
			}
		})
	}
	t.Run("a widened guard dirties the readers", func(t *testing.T) {
		b, loaded := readersBuilder(t, strings.Replace(publishSrc, "USE", "d = c;", 1))
		o := b.Prog.Objects[0].ID
		θ := guard.Var(b.Prog.Pool.Bool("theta"))
		b.ptsAdd(loaded, o, θ, noProducer)
		for _, tc := range []struct {
			name  string
			g     *guard.Formula
			dirty bool
		}{
			{"same guard", θ, false},
			{"wider guard", guard.Var(b.Prog.Pool.Bool("other")), true},
		} {
			b.dirty[0] = false
			b.ptsAdd(loaded, o, tc.g, noProducer)
			if b.dirty[0] != tc.dirty {
				t.Errorf("%s: main dirty = %v, want %v", tc.name, b.dirty[0], tc.dirty)
			}
		}
	})
}

// scheduleCorpus returns the differential corpus: testdata/, every
// program in examples/ (the .cn files and the source literals of the Go
// examples that parse), and the catalogue shapes at line scale 0.002.
func scheduleCorpus(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	root := filepath.Join("..", "..")
	for _, pat := range []string{"testdata/*.cn", "examples/*/*.cn"} {
		files, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = string(data)
		}
	}
	literal := regexp.MustCompile("(?s)`([^`]*func main\\([^`]*)`")
	mains, err := filepath.Glob(filepath.Join(root, "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mains {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range literal.FindAllStringSubmatch(string(data), -1) {
			if _, err := lang.Parse(m[1]); err == nil {
				out[fmt.Sprintf("%s#%d", f, i)] = m[1]
			}
		}
	}
	for _, p := range workload.Projects(0.002) {
		out["shape:"+p.Spec.Name] = workload.Generate(p.Spec)
	}
	return out
}

// buildSchedule runs the full fixpoint over prog, with every thread
// forced dirty in every round when allDirty is set.
func buildSchedule(t *testing.T, prog *ir.Program, mhp, allDirty bool) *Builder {
	t.Helper()
	opt := DefaultBuild()
	opt.EnableMHP = mhp
	b := newBuilder(prog, opt.withDefaults())
	b.allDirty = allDirty
	if err := b.fixpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadersScheduleMatchesAllDirty is the differential gate of the
// readers rule: skipping the threads it leaves clean must change nothing.
// The reference schedule re-runs every thread in every round through the
// same round code. Both must reach the same VFG (edges, guards and edge
// ids, via the DOT rendering), the same guarded points-to sets, the same
// round count and the same reports, with MHP on and off.
func TestReadersScheduleMatchesAllDirty(t *testing.T) {
	corpus := scheduleCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) < 40 {
		t.Fatalf("differential corpus has only %d programs", len(names))
	}
	skipped := 0
	for _, name := range names {
		ast, err := lang.Parse(corpus[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			skipped++ // examples written against a non-default entry
			continue
		}
		for _, mhp := range []bool{true, false} {
			ref := buildSchedule(t, prog, mhp, true)
			got := buildSchedule(t, prog, mhp, false)
			where := fmt.Sprintf("%s (mhp=%v)", name, mhp)
			if got.Stats.Iterations != ref.Stats.Iterations || got.Stats.FixpointExhausted != ref.Stats.FixpointExhausted {
				t.Errorf("%s: %d rounds (exhausted %v), all-dirty %d (exhausted %v)", where,
					got.Stats.Iterations, got.Stats.FixpointExhausted, ref.Stats.Iterations, ref.Stats.FixpointExhausted)
			}
			if got.Stats.InstsSwept > ref.Stats.InstsSwept {
				t.Errorf("%s: swept %d instructions, all-dirty %d", where, got.Stats.InstsSwept, ref.Stats.InstsSwept)
			}
			var gd, rd strings.Builder
			if err := got.G.WriteDot(&gd); err != nil {
				t.Fatal(err)
			}
			if err := ref.G.WriteDot(&rd); err != nil {
				t.Fatal(err)
			}
			if gd.String() != rd.String() {
				t.Errorf("%s: VFG differs from the all-dirty schedule", where)
			}
			if !reflect.DeepEqual(got.pts, ref.pts) {
				t.Errorf("%s: points-to sets differ from the all-dirty schedule", where)
			}
			opt := DefaultCheck()
			opt.Workers = 1
			gr, _ := got.Check(opt)
			rr, _ := ref.Check(opt)
			if !reflect.DeepEqual(gr, rr) {
				t.Errorf("%s: reports differ from the all-dirty schedule:\n got %v\nwant %v", where, gr, rr)
			}
		}
	}
	if skipped > len(names)/4 {
		t.Errorf("%d of %d programs did not lower", skipped, len(names))
	}
}
