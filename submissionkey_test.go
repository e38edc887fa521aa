package canary

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSubmissionKeys pins the hex SubmissionKey, under DefaultOptions,
// of every testdata/ program. The key is a content address that outlives
// a process: canaryd's -cache-dir stores and the router's ring both key
// on it, so a change here orphans every stored result. Regenerate only
// with a deliberate key-version bump.
var goldenSubmissionKeys = map[string]string{
	"call_chain.cn":            "ac54cdbb3ded3663749eca1ef7e4b6dcf6a520d4df2ce0577e280c979bfd6bef",
	"condvar_protected.cn":     "f76d05e1e3bac53d53a7dccd92837ff9a4af7eb6e08591c1cdf82e3464d28771",
	"deadlock_abba.cn":         "3098a92410d76ba33c376c1138d6d090c8b4ee29175c26dba5228d775fa44b8a",
	"double_free.cn":           "d56defcefb03841500608e0d51462a0bdd9083f2bfd59644584dd9cc98b6cf37",
	"double_free_branches.cn":  "0c3ba5a37b66afad9a556cc78e9c323913172f00fbf9857c8f2921c7c8eeab77",
	"field_sensitive.cn":       "d11ad5772aa549cbe0f125f64f474a7977f6aef467854dac98d57a66b1e5cd55",
	"fig2_buggy.cn":            "1dfc40c78826b51c4053f2731cd68f6d154186f413de7337c34447e54bc612d4",
	"fig2_clean.cn":            "cdd90be7eb2e8e0754e906a62459ef1b5205a4aed182b1b0504ca4493e305337",
	"function_pointer_fork.cn": "1dcd8dc6c8361cab79a554d88d9f79083d3b38e54f9c12484e299ebce69953cc",
	"global_channel.cn":        "317381c0e0594a52c58e940696f5661b6f4a985bd590dec588a9275651f73bfe",
	"join_protected.cn":        "e48aa9b8bfc47f5f8cff2648bdd2a968c2468fa873301d86f3c5110f5683d424",
	"lock_shielded.cn":         "04288b0a5b71bcccc3c8058354d7ac23ae62778aef252d13f1a353698299d4d7",
	"lock_wrong_mutex.cn":      "734b9d724245398789b64656466e14d16582266aa7fb4882d18214858a01f1d7",
	"loop_publish.cn":          "3d28ae1a26b9b4e007d6d5ad2e4644a5dbaa735f51c3e587e6baed79af04bdbc",
	"null_transient.cn":        "9c3dfdc3b047698633b0335821e3ef329b328b37637d02cc0adc0104332daad9",
	"pso_message_passing.cn":   "0fc2cdc4757d0cea81e089ced316003d42439c468f503e3a9bc7c404e0107000",
	"race_locked.cn":           "7338755a422138d8f8893d11de2de377d736f865de8abcd40543da87e2f0820d",
	"race_unprotected.cn":      "e4f4ff4d37d0641598c8042b688cffec00bc1a03d8205dcb71de7254ba7950d9",
	"sequential_only.cn":       "18901b7ee31fc49ed6c1b60b93513b568bacb3525a456708079c67b729afeb8f",
	"taint_chain.cn":           "2b095812ce3c109c0be9060cf245a6cae1fc45ea36af5504eab75e50dab62d14",
	"taint_ordered_out.cn":     "5fdfa0193415bc4793cbd9eb30a5dbc71c366f1abe13f1e0124197609c3950da",
	"use_before_fork.cn":       "395da1e70337c151d6daa14a655f853c0fd938d034c9a09ac6a785ddf2655b87",
}

// keyVariants returns cosmetic rewrites of src that keep its line
// structure and tokens, so each must keep src's key: CRLF line endings,
// a trailing comment on every line, and trailing blanks on every line
// plus extra blank lines at the end.
func keyVariants(src string) map[string]string {
	lines := strings.Split(src, "\n")
	commented := make([]string, len(lines))
	blanked := make([]string, len(lines))
	for i, l := range lines {
		commented[i] = l + " // note " + string(rune('a'+i%26))
		blanked[i] = l + " \t "
	}
	return map[string]string{
		"crlf":           strings.ReplaceAll(src, "\n", "\r\n"),
		"comment":        strings.Join(commented, "\n"),
		"trailing-blank": strings.Join(blanked, "\n") + "\n\n \n",
	}
}

// TestGoldenSubmissionKeys pins the content address: the key bytes of
// every corpus program, and of its cosmetic variants, must not move.
func TestGoldenSubmissionKeys(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	opt := DefaultOptions()
	for _, f := range files {
		name := filepath.Base(f)
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		k := SubmissionKey(string(src), opt)
		got := hex.EncodeToString(k[:])
		want, ok := goldenSubmissionKeys[name]
		if !ok {
			t.Errorf("%q: %q, // no golden key", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: key %s, golden %s", name, got, want)
		}
		for variant, v := range keyVariants(string(src)) {
			vk := SubmissionKey(v, opt)
			if h := hex.EncodeToString(vk[:]); h != want {
				t.Errorf("%s (%s variant): key %s, golden %s", name, variant, h, want)
			}
		}
	}
	if len(files) != len(goldenSubmissionKeys) {
		t.Errorf("%d corpus programs, %d golden keys", len(files), len(goldenSubmissionKeys))
	}
}
