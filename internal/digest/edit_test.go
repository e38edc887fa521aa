package digest

import (
	"reflect"
	"strings"
	"testing"

	"canary/internal/lang"
)

const editBase = "func helper(p) {\n  q = *p;\n  print(*p);\n}\n" +
	"func leaf() {\n  z = 1;\n}\n" +
	"func main() {\n  x = malloc();\n  helper(x);\n  leaf();\n}\n"

func TestApplyEditsBasic(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		edits []Edit
		want  string
	}{
		{"replace-one-line", "a\nb\nc\n", []Edit{{2, 3, "B\n"}}, "a\nB\nc\n"},
		{"insert-before", "a\nb\n", []Edit{{2, 2, "x\ny\n"}}, "a\nx\ny\nb\n"},
		{"append-at-end", "a\nb\n", []Edit{{3, 3, "c\n"}}, "a\nb\nc\n"},
		{"delete-span", "a\nb\nc\nd\n", []Edit{{2, 4, ""}}, "a\nd\n"},
		{"no-trailing-newline-text", "a\nb\n", []Edit{{1, 2, "A"}}, "A\nb\n"},
		{"source-without-final-newline", "a\nb", []Edit{{2, 3, "B\n"}}, "a\nB\n"},
		{"two-disjoint-edits", "a\nb\nc\nd\n", []Edit{{4, 5, "D\n"}, {1, 2, "A\n"}}, "A\nb\nc\nD\n"},
		{"adjacent-edits", "a\nb\nc\n", []Edit{{2, 2, "x\n"}, {2, 3, "B\n"}}, "a\nx\nB\nc\n"},
		{"empty-edit-set", "a\nb\n", nil, "a\nb\n"},
	}
	for _, tc := range cases {
		got, err := ApplyEdits(tc.src, tc.edits)
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %q want %q", tc.name, got, tc.want)
		}
	}
}

func TestApplyEditsRejects(t *testing.T) {
	cases := []struct {
		name  string
		edits []Edit
	}{
		{"zero-start", []Edit{{0, 1, "x\n"}}},
		{"negative-start", []Edit{{-3, 1, "x\n"}}},
		{"inverted-span", []Edit{{3, 2, "x\n"}}},
		{"end-beyond-source", []Edit{{1, 9, "x\n"}}},
		{"start-beyond-source", []Edit{{9, 9, "x\n"}}},
		{"overlapping", []Edit{{1, 3, "x\n"}, {2, 4, "y\n"}}},
		{"duplicate-insertion-point", []Edit{{2, 2, "x\n"}, {2, 2, "y\n"}}},
	}
	src := "a\nb\nc\n"
	for _, tc := range cases {
		if _, err := ApplyEdits(src, tc.edits); err == nil {
			t.Errorf("%s: expected rejection, got none", tc.name)
		}
	}
}

// baseRevision is editBase as the edit path holds it, without a key
// index yet, as a live session without a warm store has it.
func baseRevision(t *testing.T) Revision {
	ast, err := lang.Parse(editBase)
	if err != nil {
		t.Fatal(err)
	}
	return Revision{Src: editBase, AST: ast}
}

// An edit to one function invalidates exactly its reverse-reachable
// cone: callers re-key because their summary folds in callee digests,
// untouched sibling functions keep their keys.
func TestApplyEditInvalidatesReverseCone(t *testing.T) {
	base := baseRevision(t)
	next, trivial, invalidated, err := base.Apply([]Edit{{2, 3, "  q = p;\n"}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if trivial || !strings.Contains(next.Src, "q = p;") || strings.Contains(next.Src, "q = *p;") {
		t.Fatalf("patch not applied (trivial=%v):\n%s", trivial, next.Src)
	}
	want := []string{"helper", "main"}
	if !reflect.DeepEqual(invalidated, want) {
		t.Fatalf("invalidated = %v, want %v", invalidated, want)
	}
	// Only the edited declaration was parsed anew.
	if next.AST.Func("helper") == base.AST.Func("helper") || next.AST.Func("leaf") != base.AST.Func("leaf") {
		t.Fatal("the edit path re-parsed the wrong declarations")
	}
}

// Comment and whitespace edits change no digest at all. A header
// comment shifts every line, so it is not representation-only; the
// edit path re-keys it without invalidating anything.
func TestApplyEditTrivialChangesNothing(t *testing.T) {
	next, trivial, invalidated, err := baseRevision(t).Apply([]Edit{{1, 1, "// a header comment\n"}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if trivial || len(invalidated) != 0 {
		t.Fatalf("header comment: trivial=%v invalidated %v", trivial, invalidated)
	}
	old, _ := lang.Parse(editBase)
	if len(Invalidated(SummaryKeys(old), next.Index.Keys())) != 0 {
		t.Fatal("summary keys drifted on a comment-only edit")
	}
	// A comment that keeps the line count is representation-only: the
	// next revision shares the parse and the index.
	next, trivial, invalidated, err = next.Apply([]Edit{{4, 5, "  print(*p); // note\n"}})
	if err != nil || !trivial || invalidated != nil {
		t.Fatalf("same-line comment: trivial=%v invalidated=%v err=%v", trivial, invalidated, err)
	}
	if next.AST == nil || next.Index == nil {
		t.Fatal("representation-only edit dropped the parse or the index")
	}
}

// A brand-new function shows up as invalidated (it has no old key) and
// existing functions that do not call it are untouched.
func TestApplyEditNewFunction(t *testing.T) {
	_, _, invalidated, err := baseRevision(t).Apply([]Edit{{13, 13, "func extra(v) {\n  w = v;\n}\n"}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(invalidated) != 1 || invalidated[0] != "extra" {
		t.Fatalf("invalidated = %v, want [extra]", invalidated)
	}
}

func TestApplyEditRejectsUnparsablePatch(t *testing.T) {
	_, _, _, err := baseRevision(t).Apply([]Edit{{1, 2, "func helper(p {\n"}})
	if err == nil || !strings.HasPrefix(err.Error(), "patched source: ") {
		t.Fatalf("expected parse rejection of broken patch, got %v", err)
	}
}
