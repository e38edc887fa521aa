package digest

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"testing"

	"canary/internal/cache"
	"canary/internal/lang"
	"canary/internal/workload"
)

// editSession1631 is perfbench's edit-session program at seed 1631.
var editSession1631 = workload.Generate(workload.Spec{
	Name: "edit-session", Lines: 8000, Seed: 1631,
	TruePositives: 4, CanaryFPs: 2, Fig2Traps: 3, OrderTraps: 2, LockTraps: 2, SaberTraps: 2, Fan: 3,
})

// goldenKeyPrograms returns the two programs whose summary keys are
// pinned: perfbench's edit-session program at seed 1631, and the corpus
// program that forks through a function pointer.
func goldenKeyPrograms(t *testing.T) map[string]*lang.Program {
	t.Helper()
	fp, err := os.ReadFile("../../testdata/function_pointer_fork.cn")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*lang.Program{
		"edit-session/1631":        mustParse(t, editSession1631),
		"function_pointer_fork.cn": mustParse(t, string(fp)),
	}
}

// keysDigest hashes the sorted (name, key) pairs of SummaryKeys.
func keysDigest(keys map[string]cache.Key) string {
	names := make([]string, 0, len(keys))
	for n := range keys {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		k := keys[n]
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(k[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSummaryKeys pins keysDigest per program. The keys address the
// warm disk summary store, so any change to their bytes turns every
// warm store cold; a change here must be deliberate.
var goldenSummaryKeys = map[string]string{
	"edit-session/1631":        "32454bbb911dd8cfd67847d834aeb4a01955eb97992818ea0ae5156896791f49",
	"function_pointer_fork.cn": "d82c217bbe932c08425261512d6b809c6214fa9e05e7c3926eecb98f446db48c",
}

func TestGoldenSummaryKeys(t *testing.T) {
	for name, prog := range goldenKeyPrograms(t) {
		got := keysDigest(SummaryKeys(prog))
		if want := goldenSummaryKeys[name]; got != want {
			t.Errorf("%s: summary keys digest %s, pinned %q", name, got, want)
		}
	}
}

// TestSharedHasherMatchesFuncStruct checks that the one hasher SummaryKeys
// reuses across functions gives every function the digest a fresh
// FuncStruct gives it, walking the program forwards and then backwards, so
// no alpha-renaming or buffer state leaks from one function to the next.
func TestSharedHasherMatchesFuncStruct(t *testing.T) {
	for name, prog := range goldenKeyPrograms(t) {
		s := newStructHasher(funcNames(prog))
		n := len(prog.Funcs)
		for k := 0; k < 2*n; k++ {
			f := prog.Funcs[k%n]
			if k >= n {
				f = prog.Funcs[2*n-1-k]
			}
			if got, want := s.sum(f), FuncStruct(prog, f); got != want {
				t.Fatalf("%s: shared hasher gives %s digest %x, FuncStruct %x", name, f.Name, got, want)
			}
		}
	}
}
