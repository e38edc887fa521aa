package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"canary/internal/lang"
	"canary/internal/workload"
)

// editSessionSpec is perfbench's edit-session program: about 8 000
// generated lines with seeded bugs and traps.
func editSessionSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "edit-session", Lines: 8000, Seed: seed,
		TruePositives: 4, CanaryFPs: 2, Fig2Traps: 3, OrderTraps: 2, LockTraps: 2, SaberTraps: 2, Fan: 3,
	}
}

// goldenSubjects returns the programs whose lowering is pinned: the
// corpus, the examples and two edit-session seeds.
func goldenSubjects(t testing.TB) map[string]string {
	t.Helper()
	subjects := make(map[string]string)
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
			subjects[strings.TrimPrefix(f, "../../")] = string(data)
		}
	}
	for _, seed := range []int64{1, 1631} {
		subjects[fmt.Sprintf("edit-session/%d", seed)] = workload.Generate(editSessionSpec(seed))
	}
	return subjects
}

// goldenLowering pins the SHA-256 of Render per subject, computed
// with the lowerer that predates the allocation work on names, lock sets
// and the on-demand function-pointer analysis. A changed digest means the
// lowered IR changed; a new subject needs its digest added here.
var goldenLowering = map[string]string{
	"edit-session/1":                    "9c1a693893f449c04083c5fc27b09055462eeb17e114d44816a124d7de1b0317",
	"edit-session/1631":                 "94416219876e2af3fa9aa983a26d5a5edca86fb20e045018c776817ed7de176f",
	"examples/service/program.cn":       "ed427241c1f24cdab3b315142cc29ce1a99a7d1e8ab644965cbe6b9076373992",
	"testdata/call_chain.cn":            "27a79ad708ff6ccfa3e2affba7564b41cb0f6c4b810d1d38f482a23c66bce36b",
	"testdata/condvar_protected.cn":     "6bea756b02487a720d3dd6b72be9d71eef2e2f21f8b45981b90773124c52f79e",
	"testdata/deadlock_abba.cn":         "51702e07c83423836c8f11dc5d4575a8eeab9f48860beb1c591d6258dbb86dc9",
	"testdata/double_free.cn":           "5c61c946e0c8a6362461a206a8fc4d2f7174cdbe3b4a47a669168c4f5a755205",
	"testdata/double_free_branches.cn":  "25d5a19735d9182fbf93e8d5f6295a6ed8ca8cc4022f0ff102fe7ae782cd4731",
	"testdata/field_sensitive.cn":       "83d658c420dc18cc5b819ba2f6e539467e91c56890e381de46e463e93be2f903",
	"testdata/fig2_buggy.cn":            "6bae5d7171fa60a02bb0b4638986ba4fb66c4dd031f2bdc90a0f5cf88e880959",
	"testdata/fig2_clean.cn":            "acc8c60d1d46546086ab97054d3ff14771a7fc43b2e5b451be3d43e880ca6189",
	"testdata/function_pointer_fork.cn": "a83e2c94b8614db1fcf363553364d7f7adebdacde9457d6b89a8a4e4cf866d6c",
	"testdata/global_channel.cn":        "1ed9f552e824d73efbec1e1a6ba7cf1741523dd423a395938cd5d887ff99e007",
	"testdata/join_protected.cn":        "a8ef380bfa831f3e717af33d810e43426700792613c38c0af2f2a06ad90f9e45",
	"testdata/lock_shielded.cn":         "519918921a968d69ee139023e231cee493a37e4ae886f1001e960cb6104ef97c",
	"testdata/lock_wrong_mutex.cn":      "54de26e6b91fa41cc0b90a16326c5f51252baaa70e4f4239ae3a1a5ceb9e32f0",
	"testdata/loop_publish.cn":          "1a81ee7d8d10e0a53870b6ba17ab7e286633127dd4330b7a7dba4ec1a2b82cf6",
	"testdata/null_transient.cn":        "b27623c46b8c8bf0d39d5d38f4365f1aae07df6c3f7a0e30bf99073a6c871562",
	"testdata/pso_message_passing.cn":   "fd530c35a9dddfe1b731fe00050b6a058d697832d3736f000592d327991867f9",
	"testdata/race_locked.cn":           "7244297b1e37486df13c5025e9efb0b998c4d5be4a8bbe183d49a3419abe9d91",
	"testdata/race_unprotected.cn":      "9c724cb849597f70a8ad074045a4905bee54a7ba67715fb100cbab02cb8390ae",
	"testdata/sequential_only.cn":       "446bf0be73523ba4a410e79a848b88d982b2c0cb443feb7c1b4d28d7dbc15ab4",
	"testdata/taint_chain.cn":           "762d50ca6a6f53c39a40aeca14cc98d7be4f9af9f98c2db98cda9566137cafa9",
	"testdata/taint_ordered_out.cn":     "23bbc7192f5e8184a954b0b67a3950039b1f4971712287d0002d365210a75a3b",
	"testdata/use_before_fork.cn":       "c108102379b2c03b2ff4e165e6257562cdc4681435cb1903beb3fb517cb2999a",
}

// TestGoldenLowering checks that every pinned subject still lowers to
// exactly the pinned IR.
func TestGoldenLowering(t *testing.T) {
	subjects := goldenSubjects(t)
	names := make([]string, 0, len(subjects))
	for name := range subjects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ast, err := lang.Parse(subjects[name])
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		p, err := Lower(ast, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: lower: %v", name, err)
		}
		sum := sha256.Sum256([]byte(Render(p)))
		got := hex.EncodeToString(sum[:])
		want, ok := goldenLowering[name]
		switch {
		case !ok:
			t.Errorf("%q: %q, // no pinned digest", name, got)
		case got != want:
			t.Errorf("%s: lowering digest %s, pinned %s", name, got, want)
		}
	}
	if len(subjects) != len(goldenLowering) {
		t.Errorf("%d subjects, %d pinned digests", len(subjects), len(goldenLowering))
	}
}
