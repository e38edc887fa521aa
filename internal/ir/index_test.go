package ir

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canary/internal/lang"
	"canary/internal/workload"
)

// lockPatterns covers the unlock shapes the corpus lacks: re-locking in
// sequence and in an unrolled loop, an unlock in each branch arm, nested
// mutexes, and one mutex name shared across threads.
const lockPatterns = `
func worker(p) {
  lock(m);
  *p = p;
  unlock(m);
  lock(m);
  unlock(m);
}
func main() {
  x = malloc();
  fork(t, worker, x);
  lock(m);
  lock(n);
  if (c) { unlock(m); } else { unlock(m); }
  unlock(n);
  while (d) {
    lock(m);
    y = *x;
    unlock(m);
  }
  lock(n);
  if (e) { unlock(n); }
  join(t);
}
`

// indexSubjects returns the differential-test inputs: the corpus, the
// example programs, the twenty catalogue shapes at a small scale, and
// lockPatterns.
func indexSubjects(t testing.TB) map[string]string {
	t.Helper()
	subjects := map[string]string{"lockPatterns": lockPatterns}
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
			subjects[f] = string(data)
		}
	}
	if len(subjects) < 11 {
		t.Fatalf("only %d corpus/example programs found", len(subjects))
	}
	for _, p := range workload.Projects(0.001) {
		subjects["catalogue/"+p.Name] = workload.Generate(p.Spec)
	}
	return subjects
}

func lowerSubject(t testing.TB, name, src string) *Program {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	p, err := Lower(ast, DefaultOptions())
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	return p
}

// refReachable is the reference reachability: a plain DFS over successor
// edges, independent of the block numbering.
func refReachable(from *Block) map[*Block]bool {
	seen := make(map[*Block]bool)
	stack := append([]*Block(nil), from.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen
}

// refMatchingUnlock is the whole-program scan the unlock index replaced.
func refMatchingUnlock(p *Program, acq Label, m string) Label {
	th := p.insts[acq].Thread
	found := NoLabel
	for _, i := range p.insts {
		if i.Op != OpUnlock || i.Mutex() != m || i.Thread != th {
			continue
		}
		if p.Reaches(acq, i.Label) {
			if found != NoLabel {
				return NoLabel
			}
			found = i.Label
		}
	}
	return found
}

// TestBlockOrderInvariant checks the property the order queries rest on:
// every successor edge stays in its thread and points to a later position
// of the thread's Blocks slice.
func TestBlockOrderInvariant(t *testing.T) {
	for name, src := range indexSubjects(t) {
		p := lowerSubject(t, name, src)
		for _, th := range p.Threads {
			pos := make(map[*Block]int, len(th.Blocks))
			for i, b := range th.Blocks {
				pos[b] = i
			}
			for _, b := range th.Blocks {
				for _, s := range b.Succs {
					si, ok := pos[s]
					if !ok || si <= pos[b] {
						t.Fatalf("%s: thread %d edge b%d -> b%d does not go forward (positions %d -> %d, in thread %v)",
							name, th.ID, b.ID, s.ID, pos[b], si, ok)
					}
				}
			}
		}
	}
}

// TestReachesMatchesDFS compares the topological sweep with a reference
// DFS for every ordered block pair of every thread, both through
// blockReaches and through Reaches on the blocks' first instructions.
func TestReachesMatchesDFS(t *testing.T) {
	pairs := 0
	for name, src := range indexSubjects(t) {
		p := lowerSubject(t, name, src)
		for _, th := range p.Threads {
			for _, from := range th.Blocks {
				want := refReachable(from)
				for _, to := range th.Blocks {
					if to == from {
						continue
					}
					pairs++
					if got := p.blockReaches(from, to); got != want[to] {
						t.Fatalf("%s: thread %d blockReaches(b%d, b%d) = %v, DFS says %v",
							name, th.ID, from.ID, to.ID, got, want[to])
					}
					if len(from.Insts) == 0 || len(to.Insts) == 0 {
						continue
					}
					l1, l2 := from.Insts[0].Label, to.Insts[0].Label
					if got := p.Reaches(l1, l2); got != want[to] {
						t.Fatalf("%s: Reaches(ℓ%d, ℓ%d) = %v, DFS says %v", name, l1, l2, got, want[to])
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no block pairs compared")
	}
	t.Logf("%d block pairs compared", pairs)
}

// TestMatchingUnlockMatchesScan compares the unlock index with the
// whole-program scan for every lock acquisition, against every mutex name
// of the program (so a wrong thread or mutex bucket shows too).
func TestMatchingUnlockMatchesScan(t *testing.T) {
	acqs, matched := 0, 0
	for name, src := range indexSubjects(t) {
		p := lowerSubject(t, name, src)
		mutexes := make(map[string]bool)
		for _, in := range p.insts {
			if in.Op == OpLock || in.Op == OpUnlock {
				mutexes[in.Mutex()] = true
			}
		}
		for _, in := range p.insts {
			if in.Op != OpLock {
				continue
			}
			acqs++
			for m := range mutexes {
				got, want := p.MatchingUnlock(in.Label, m), refMatchingUnlock(p, in.Label, m)
				if got != want {
					t.Fatalf("%s: MatchingUnlock(ℓ%d, %s) = %d, scan says %d", name, in.Label, m, got, want)
				}
				if got != NoLabel {
					matched++
				}
			}
		}
	}
	if acqs == 0 || matched == 0 {
		t.Fatalf("comparison vacuous: %d acquisitions, %d matched unlocks", acqs, matched)
	}
	t.Logf("%d acquisitions compared, %d unique matches", acqs, matched)
}

// TestFinalizeRejectsBackwardEdge checks that a CFG breaking the block
// order invariant fails loudly instead of answering reachability wrong.
func TestFinalizeRejectsBackwardEdge(t *testing.T) {
	p := mustLower(t, `
func main() {
  if (c) { x = malloc(); }
  y = malloc();
}
`, DefaultOptions())
	blocks := p.Threads[0].Blocks
	if len(blocks) < 2 {
		t.Fatalf("want a branching CFG, got %d blocks", len(blocks))
	}
	link(blocks[len(blocks)-1], blocks[0])
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "block order invariant") {
			t.Fatalf("Finalize with a backward edge: recovered %v, want an invariant panic", r)
		}
	}()
	p.Finalize()
}

// largestShape lowers the largest catalogue shape at the benchmark's
// scale, the program whose order queries dominate the cold-scan tail.
func largestShape(b *testing.B) *Program {
	b.Helper()
	projects := workload.Projects(0.004)
	last := projects[len(projects)-1]
	return lowerSubject(b, last.Name, workload.Generate(last.Spec))
}

// syncSites groups each thread's fork, join, lock and unlock labels: the
// labels the MHP window and lock-order queries ask about.
func syncSites(p *Program) [][]Label {
	out := make([][]Label, len(p.Threads))
	for _, in := range p.insts {
		switch in.Op {
		case OpFork, OpJoin, OpLock, OpUnlock:
			out[in.Thread] = append(out[in.Thread], in.Label)
		}
	}
	return out
}

var benchSink int

// BenchmarkReaches asks every ordered pair of sync sites in every thread
// with an empty reachability cache, so each iteration pays for the
// per-block sweeps as one analysis would.
func BenchmarkReaches(b *testing.B) {
	p := largestShape(b)
	sites := syncSites(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.reach = make(map[*Block][]uint64)
		n := 0
		for _, ls := range sites {
			for _, l1 := range ls {
				for _, l2 := range ls {
					if p.Reaches(l1, l2) {
						n++
					}
				}
			}
		}
		benchSink = n
	}
}

// BenchmarkMatchingUnlock resolves the matching unlock of every lock
// acquisition, with the reachability cache already warm.
func BenchmarkMatchingUnlock(b *testing.B) {
	p := largestShape(b)
	var acqs []*Inst
	for _, in := range p.insts {
		if in.Op == OpLock {
			acqs = append(acqs, in)
		}
	}
	for _, in := range acqs {
		p.MatchingUnlock(in.Label, in.Mutex())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, in := range acqs {
			if p.MatchingUnlock(in.Label, in.Mutex()) != NoLabel {
				n++
			}
		}
		benchSink = n
	}
}
