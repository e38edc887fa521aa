package mhp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// refWindowOrder is the window order the site bitsets replaced: it asks
// Program.Reaches, which sweeps the CFG forward from the label's block.
func refWindowOrder(p *ir.Program, l ir.Label, c int) int {
	th := p.Threads[c]
	if l == th.ForkSite || p.Reaches(l, th.ForkSite) {
		return -1
	}
	if th.JoinSite != ir.NoLabel && (l == th.JoinSite || p.Reaches(th.JoinSite, l)) {
		return 1
	}
	return 0
}

// refSiblingOrder is the Reaches-based order of two sibling subtrees.
func refSiblingOrder(p *ir.Program, c1, c2 int) int {
	w1, w2 := p.Threads[c1], p.Threads[c2]
	if w1.JoinSite != ir.NoLabel &&
		(w1.JoinSite == w2.ForkSite || p.Reaches(w1.JoinSite, w2.ForkSite)) {
		return -1
	}
	if w2.JoinSite != ir.NoLabel &&
		(w2.JoinSite == w1.ForkSite || p.Reaches(w2.JoinSite, w1.ForkSite)) {
		return 1
	}
	return 0
}

// oracleCorpus returns the programs of the differential test: testdata/,
// the examples, the twenty catalogue shapes at 0.002 and perfbench's
// edit-session program at two seeds.
func oracleCorpus(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, pat := range []string{"../../testdata/*.cn", "../../examples/*/*.cn"} {
		files, err := filepath.Glob(pat)
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
	for _, p := range workload.Projects(0.002) {
		out["shape:"+p.Spec.Name] = workload.Generate(p.Spec)
	}
	for _, seed := range []int64{1, 1631} {
		out[fmt.Sprintf("edit-session/%d", seed)] = workload.Generate(workload.Spec{
			Name: "edit-session", Lines: 8000, Seed: seed,
			TruePositives: 4, CanaryFPs: 2, Fig2Traps: 3, OrderTraps: 2, LockTraps: 2, SaberTraps: 2, Fan: 3,
		})
	}
	return out
}

// TestSiteOrderMatchesReaches requires the site bitsets to give the
// Reaches-based answer for every (label, child) pair — each label of a
// thread against each subtree it forked — and for every pair of sibling
// subtrees, over the whole corpus.
func TestSiteOrderMatchesReaches(t *testing.T) {
	corpus := oracleCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	windows, siblings, ordered := 0, 0, 0
	for _, name := range names {
		ast, err := lang.Parse(corpus[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := Analyze(p)
		children := make([][]int, len(p.Threads))
		for _, th := range p.Threads {
			if th.Parent >= 0 {
				children[th.Parent] = append(children[th.Parent], th.ID)
			}
		}
		for _, th := range p.Threads {
			kids := children[th.ID]
			for _, blk := range th.Blocks {
				for _, in := range blk.Insts {
					for _, c := range kids {
						got, want := m.windowOrder(in.Label, c), refWindowOrder(p, in.Label, c)
						if got != want {
							t.Fatalf("%s: label %d against thread %d: order %d, Reaches says %d", name, in.Label, c, got, want)
						}
						windows++
						if got != 0 {
							ordered++
						}
					}
				}
			}
			for _, c1 := range kids {
				for _, c2 := range kids {
					if c1 == c2 {
						continue
					}
					if got, want := m.siblingOrder(c1, c2), refSiblingOrder(p, c1, c2); got != want {
						t.Fatalf("%s: threads %d and %d: order %d, Reaches says %d", name, c1, c2, got, want)
					}
					siblings++
				}
			}
		}
	}
	if ordered == 0 || ordered == windows {
		t.Fatalf("comparison vacuous: %d of %d window pairs ordered", ordered, windows)
	}
	t.Logf("%d (label, child) pairs (%d ordered), %d sibling pairs", windows, ordered, siblings)
}
