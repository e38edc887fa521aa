package canary

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"canary/internal/digest"
)

// FuzzAnalyze runs the whole pipeline on arbitrary inputs under tiny
// step budgets, seeded from the analysis corpus. The contract is the
// robustness tentpole's: any input either analyzes (possibly degraded to
// inconclusive verdicts) or returns a typed error — never a panic and
// never an unbounded run. The budgets keep each exploration cheap so the
// fuzzer's throughput stays useful; inputs beyond 4 KiB are skipped
// because the corpus grammar never needs them to reach new pipeline
// states.
func FuzzAnalyze(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range corpus {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("func main() { p = malloc(); free(p); free(p); }")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip("oversized input")
		}
		opt := DefaultOptions()
		opt.Workers = 1
		opt.UnrollDepth = 1
		opt.InlineDepth = 2
		opt.Budgets = Budgets{
			MaxFixpointRounds: 4,
			MaxDFSSteps:       200,
			MaxFormulaNodes:   64,
		}
		res, err := Analyze(src, opt)
		if err == nil && res == nil {
			t.Error("Analyze returned (nil, nil)")
		}
	})
}

// FuzzLiveSave opens a live session on a corpus program, applies one
// fuzzed line edit and requires the session's findings to equal a cold
// analysis of the patched text, whether the save was representation-only,
// cut off after lowering (an interior-whitespace change lowers to the same
// program) or analyzed in full. A rejected edit must leave the session's
// text and findings as they were.
func FuzzLiveSave(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		f.Fatal("no corpus", err)
	}
	srcs := make([]string, len(files))
	for i, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		srcs[i] = string(data)
	}
	fig2 := 0
	for i, file := range files {
		if filepath.Base(file) == "fig2_buggy.cn" {
			fig2 = i
		}
	}
	f.Add(fig2, 4, 5, "  x  = malloc();\n")        // same program: cutoff
	f.Add(fig2, 9, 10, "    print(*c); // kept\n") // representation-only
	f.Add(fig2, 16, 17, "\n")                      // the free deleted
	f.Add(fig2, 5, 5, "  k = 1;\n")                // a new instruction
	f.Add(fig2, 7, 8, "  if (theta2) {\n")         // guards differ
	f.Add(fig2+1, 3, 4, "func main(a, b) {\n")     // another program
	f.Add(fig2, 40, 41, "x\n")                     // rejected span
	f.Fuzz(func(t *testing.T, pick, start, end int, text string) {
		if len(text) > 512 {
			t.Skip("oversized edit")
		}
		if pick < 0 {
			pick = -pick
		}
		src := srcs[pick%len(srcs)]
		// FuzzAnalyze's bounds keep each run cheap.
		opt := DefaultOptions()
		opt.Workers = 1
		opt.UnrollDepth = 1
		opt.InlineDepth = 2
		opt.Budgets = Budgets{MaxFixpointRounds: 4, MaxDFSSteps: 200, MaxFormulaNodes: 64}
		live, _, err := NewSession().Open(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		before := live.Reports()
		_, err = live.ApplyEdits(context.Background(), []Edit{{start, end, text}})
		if errors.Is(err, ErrEditRejected) {
			if live.Source() != src || !sameReports(live.Reports(), before) {
				t.Fatal("a rejected edit changed the session")
			}
			return
		}
		p, perr := digest.Splice(src, []digest.Edit{{Start: start, End: end, Text: text}})
		if perr != nil {
			t.Fatalf("the session accepted an edit Splice rejects: %v", perr)
		}
		cold, cerr := Analyze(p.Text(), opt)
		if err != nil {
			// A failed analysis keeps the previous revision.
			if cerr == nil {
				t.Fatalf("live save failed (%v), a cold analysis of the patched text did not", err)
			}
			if live.Source() != src || !sameReports(live.Reports(), before) {
				t.Fatal("a failed save changed the session")
			}
			return
		}
		if cerr != nil {
			t.Fatalf("live save succeeded, a cold analysis of the patched text failed: %v", cerr)
		}
		if live.Source() != p.Text() {
			t.Fatal("the session's text differs from the patched text")
		}
		if !sameReports(live.Reports(), cold.Reports) {
			t.Fatalf("live findings differ from a cold analysis of the patched text:\nlive %#v\ncold %#v", live.Reports(), cold.Reports)
		}
	})
}
