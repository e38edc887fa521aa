package digest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canary/internal/lang"
)

// splitJoinCanonicalSource is the Split/Join canonicalizer that
// CanonicalSource replaced, kept as the reference its one-pass form must
// equal byte for byte: SubmissionKey hashes this text, so any difference
// would move every stored content address.
func splitJoinCanonicalSource(src string) string {
	lines := strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(lang.StripLineComment(l), " \t\r")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n") + "\n"
}

func checkCanonicalSource(t *testing.T, src string) {
	t.Helper()
	want := splitJoinCanonicalSource(src)
	if got := CanonicalSource(src); got != want {
		t.Fatalf("CanonicalSource(%q) = %q, reference %q", src, got, want)
	}
	dst := make([]byte, 0, len(src)+1)
	if got := AppendCanonicalSource(dst, src); string(got) != want || cap(got) != cap(dst) {
		t.Fatalf("AppendCanonicalSource(%q) = %q (cap %d → %d), reference %q",
			src, got, cap(dst), cap(got), want)
	}
}

func TestCanonicalSourceMatchesReference(t *testing.T) {
	for _, src := range []string{
		"", "\n", "\n\n", "\r\n", "\r", "\r\r\n", " \t\r\n\n", "//", "x //", "//\n//\n",
		"a", "a\n", "a\n\n\n", "\n\na\n", "a\r\nb", "a\r\r\nb\r", "a\rb\n",
		"a // c\r\n  \n b\t\n", "/\r\n/", "a /\r\n/ b", "x = 1; // a // b\n",
	} {
		checkCanonicalSource(t, src)
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.cn"))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		checkCanonicalSource(t, string(src))
	}
	checkCanonicalSource(t, editSession1631)
}

// FuzzCanonicalSource checks the one-pass canonicalizer against the
// Split/Join reference on arbitrary text.
func FuzzCanonicalSource(f *testing.F) {
	f.Add("func main() { // entry\r\n  x = malloc();  \n\n}\n\n \n")
	f.Add("a\r\r\n/\r\n/ b\t\r")
	f.Add("\n\n// only comments\n")
	f.Fuzz(func(t *testing.T, src string) {
		checkCanonicalSource(t, src)
	})
}

var canonSink string

// BenchmarkCanonicalSource canonicalizes perfbench's edit-session program
// at seed 1631.
func BenchmarkCanonicalSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonSink = CanonicalSource(editSession1631)
	}
}
