package lang

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

const reparseBase = "global g;\n" +
	"func a() {\n  x = 1;\n}\n" +
	"func b() {\n  y = &g;\n}\n" +
	"func main() {\n  a();\n  b();\n}\n"

// reparseCheck re-parses an edit of reparseBase that replaced lines
// [lo, hi) and requires the result to equal a full parse.
func reparseCheck(t *testing.T, patched string, lo, hi int) (prev, prog *Program, fresh []*FuncDecl) {
	t.Helper()
	prev, err := Parse(reparseBase)
	if err != nil {
		t.Fatal(err)
	}
	delta := strings.Count(patched, "\n") - strings.Count(reparseBase, "\n")
	prog, fresh, err = Reparse(prev, patched, lo, hi, delta)
	want, werr := Parse(patched)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("Reparse error %v, Parse error %v", err, werr)
	}
	if !reflect.DeepEqual(prog, want) {
		t.Fatalf("Reparse differs from Parse")
	}
	return prev, prog, fresh
}

// A one-line edit re-parses only its declaration; the others are reused
// pointer for pointer; a line-count change re-parses to the end.
func TestReparseSplicesTouchedDeclaration(t *testing.T) {
	patched := strings.Replace(reparseBase, "  x = 1;\n", "  x = 2;\n", 1)
	prev, prog, fresh := reparseCheck(t, patched, 3, 4)
	if len(fresh) != 1 || fresh[0].Name != "a" {
		t.Fatalf("fresh = %v, want [a]", fresh)
	}
	if prog.Globals[0] != prev.Globals[0] || prog.Func("b") != prev.Func("b") || prog.Func("main") != prev.Func("main") {
		t.Fatal("untouched declarations were not reused")
	}

	patched = strings.Replace(reparseBase, "  x = 1;\n", "  x = 1;\n  z = 3;\n", 1)
	prev, prog, fresh = reparseCheck(t, patched, 3, 4)
	if len(fresh) != 3 || prog.Globals[0] != prev.Globals[0] {
		t.Fatalf("fresh = %v, want a line-count change to re-parse to the end of the source", fresh)
	}
}

// Edits the region cannot absorb fall back to a full parse, with its
// error text.
func TestReparseFallsBack(t *testing.T) {
	for name, c := range map[string]struct {
		patched string
		lo, hi  int
	}{
		"deleted brace":  {strings.Replace(reparseBase, "  x = 1;\n}\n", "  x = 1;\n", 1), 4, 5},
		"duplicate name": {strings.Replace(reparseBase, "func a() {", "func b() {", 1), 2, 3},
		"bad token":      {strings.Replace(reparseBase, "  x = 1;", "  x = $;", 1), 3, 4},
		"stray code":     {strings.Replace(reparseBase, "func b() {", "  q = 1;\nfunc b() {", 1), 5, 5},
	} {
		t.Run(name, func(t *testing.T) { reparseCheck(t, c.patched, c.lo, c.hi) })
	}
}

// A re-parsed declaration's names do not point into the patched text: a
// declaration can outlive many revisions, and must not keep each whole
// text alive.
func TestReparseDoesNotPinText(t *testing.T) {
	patched := strings.Replace(reparseBase, "  x = 1;\n", "  xx = 1;\n", 1)
	_, _, fresh := reparseCheck(t, patched, 3, 4)
	lhs := fresh[0].Body.Stmts[0].(*AssignStmt).LHS
	p := uintptr(unsafe.Pointer(unsafe.StringData(lhs)))
	base := uintptr(unsafe.Pointer(unsafe.StringData(patched)))
	if p >= base && p < base+uintptr(len(patched)) {
		t.Fatal("re-parsed name points into the patched text")
	}
}
