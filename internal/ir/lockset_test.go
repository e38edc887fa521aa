package ir

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"canary/internal/workload"
)

// refLockSets is the worklist must-analysis the forward pass replaced: the
// meet at a join is map intersection (a lock differing in acquisition site
// across paths is dropped), lock() adds, unlock() removes, and blocks are
// revisited until their out-sets stop changing. It returns each
// instruction's must-held set by label; nil for an instruction the
// analysis never reached.
func refLockSets(p *Program) [][]HeldLock {
	out := make([][]HeldLock, len(p.insts))
	for _, th := range p.Threads {
		refLockSetsForThread(th, out)
	}
	return out
}

func refLockSetsForThread(th *Thread, sets [][]HeldLock) {
	n := len(th.Blocks)
	if n == 0 {
		return
	}
	in := make([]map[string]Label, n)
	out := make([]map[string]Label, n)
	// nil means "top" (not yet computed), distinct from the empty set.
	worklist := []*Block{th.Entry}
	in[th.Entry.local] = map[string]Label{}
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		cur := refCopySet(in[b.local])
		for _, i := range b.Insts {
			sets[i.Label] = refSorted(cur)
			switch i.Op {
			case OpLock:
				cur[i.Mutex()] = i.Label
			case OpUnlock:
				delete(cur, i.Mutex())
			}
		}
		if refEqualSet(out[b.local], cur) {
			continue
		}
		out[b.local] = cur
		for _, s := range b.Succs {
			var merged map[string]Label
			if in[s.local] == nil {
				merged = refCopySet(cur)
			} else {
				merged = refIntersect(in[s.local], cur)
				if refEqualSet(merged, in[s.local]) {
					continue
				}
			}
			in[s.local] = merged
			worklist = append(worklist, s)
		}
	}
}

func refCopySet(s map[string]Label) map[string]Label {
	out := make(map[string]Label, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func refIntersect(a, b map[string]Label) map[string]Label {
	out := make(map[string]Label)
	for k, v := range a {
		if bv, ok := b[k]; ok && bv == v {
			out[k] = v
		}
	}
	return out
}

func refEqualSet(a, b map[string]Label) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func refSorted(s map[string]Label) []HeldLock {
	if len(s) == 0 {
		return nil
	}
	out := make([]HeldLock, 0, len(s))
	for k, v := range s {
		out = append(out, HeldLock{Name: k, Acquire: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lockSubjects returns the lock-set oracle's inputs: the golden corpus,
// lockPatterns, the twenty catalogue shapes at 0.002, and generated
// programs with at least four lock traps each.
func lockSubjects(t testing.TB) map[string]string {
	t.Helper()
	subjects := goldenSubjects(t)
	subjects["lockPatterns"] = lockPatterns
	for _, p := range workload.Projects(0.002) {
		subjects["catalogue/"+p.Name] = workload.Generate(p.Spec)
	}
	for seed := int64(1); seed <= 4; seed++ {
		spec := workload.Spec{
			Name: "locks", Lines: 1200, Seed: seed,
			TruePositives: 1, Fig2Traps: 1, OrderTraps: 1, LockTraps: 3 + int(seed), SaberTraps: 1, Fan: 2,
		}
		subjects[fmt.Sprintf("locks/%d", seed)] = workload.Generate(spec)
	}
	return subjects
}

// TestLockSetsMatchWorklist requires the one forward pass over each
// thread's blocks to give every instruction exactly the must-held set the
// worklist analysis computes.
func TestLockSetsMatchWorklist(t *testing.T) {
	held := 0
	for name, src := range lockSubjects(t) {
		p := lowerSubject(t, name, src)
		want := refLockSets(p)
		for _, in := range p.insts {
			if !reflect.DeepEqual(p.Locks(in), want[in.Label]) {
				t.Fatalf("%s: %s holds %v, worklist says %v", name, p.String(in), p.Locks(in), want[in.Label])
			}
			if len(p.Locks(in)) > 0 {
				held++
			}
		}
	}
	if held == 0 {
		t.Fatal("comparison vacuous: no instruction holds a lock")
	}
	t.Logf("%d instructions hold a lock", held)
}
