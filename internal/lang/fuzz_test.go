package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the parser with arbitrary byte strings, seeded from
// the whole analysis corpus. The contract under fuzzing is total: every
// input either parses or returns an error — the parser must never panic,
// hang, or accept something it cannot lower. And because Parse streams
// tokens instead of tokenizing first, it also checks that lexical errors
// keep their precedence: whenever Tokenize fails, Parse fails with the
// same error text. Crashing inputs found by
// the fuzzer are checked into testdata/fuzz and replayed as ordinary
// regression tests by go test.
func FuzzParse(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.cn"))
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
	f.Add("func main() { }")
	f.Add("global g;\nfunc main() { lock(g); unlock(g); }")
	f.Add("func main() { if (c) { free(p); } }")
	f.Add("") // empty input
	// A parse error before a lexical one, and junk after a complete program.
	f.Add("func main() { x = 1 }\nfunc f() { y = 2 | 3; }")
	f.Add("func main() { } # trailing junk")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil && prog == nil {
			t.Error("Parse returned (nil, nil)")
		}
		if _, lexErr := Tokenize(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Errorf("Tokenize fails with %q, Parse with %v", lexErr, err)
			}
		}
	})
}
