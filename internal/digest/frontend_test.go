package digest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"canary/internal/cache"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// The edit path (Revision.Apply) is checked against the whole-program
// front end it replaced, kept here as the oracle: the line-split
// ApplyEdits, a CanonicalSource comparison for the representation-only
// verdict, a full lang.Parse, a full SummaryKeys and a map diff.

// applyEditsLines is the line-split ApplyEdits that the byte-offset
// splice replaced.
func applyEditsLines(src string, edits []Edit) (string, error) {
	var lines []string
	if src != "" {
		lines = strings.Split(src, "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
	}
	n := len(lines)
	sorted := append([]Edit(nil), edits...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	for i, e := range sorted {
		if e.Start < 1 {
			return "", fmt.Errorf("digest: edit %d: start line %d is below 1", i, e.Start)
		}
		if e.End < e.Start {
			return "", fmt.Errorf("digest: edit %d: end line %d precedes start line %d", i, e.End, e.Start)
		}
		if e.End > n+1 {
			return "", fmt.Errorf("digest: edit %d: end line %d is beyond the source (%d lines)", i, e.End, n)
		}
		if i > 0 {
			prev := sorted[i-1]
			if prev.End > e.Start || (prev.Start == e.Start && prev.End == e.End) {
				return "", fmt.Errorf("digest: edits %d and %d overlap", i-1, i)
			}
		}
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		e := sorted[i]
		var repl []string
		if e.Text != "" {
			repl = strings.Split(strings.TrimSuffix(e.Text, "\n"), "\n")
		}
		tail := append([]string(nil), lines[e.End-1:]...)
		lines = append(append(lines[:e.Start-1], repl...), tail...)
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// frontEnd is what the front end makes of one edit batch.
type frontEnd struct {
	src         string
	trivial     bool
	ast         *lang.Program
	keys        map[string]cache.Key
	invalidated []string
	err         string
}

// oracleApply runs the whole-program front end over src, whose keys are
// oldKeys, and one batch.
func oracleApply(src string, oldKeys map[string]cache.Key, edits []Edit) frontEnd {
	patched, err := applyEditsLines(src, edits)
	if err != nil {
		return frontEnd{err: err.Error()}
	}
	if CanonicalSource(patched) == CanonicalSource(src) {
		return frontEnd{src: patched, trivial: true}
	}
	ast, err := lang.Parse(patched)
	if err != nil {
		return frontEnd{err: "patched source: " + err.Error()}
	}
	keys := SummaryKeys(ast)
	return frontEnd{src: patched, ast: ast, keys: keys, invalidated: Invalidated(oldKeys, keys)}
}

// differ carries one program through a sequence of batches on both front
// ends, failing the test on the first difference.
type differ struct {
	t    testing.TB
	rev  Revision
	keys map[string]cache.Key // the oracle's keys of rev.Src
	// steps counts the batches checked, the rest how each ended;
	// spliced counts the semantic ones that kept some declaration of the
	// previous parse, which only the region re-parse does.
	steps                                int
	trivial, semantic, rejected, spliced int

	// lower, when set, lowers every semantic revision and requires two
	// consecutive lowerings to digest alike (ir.Digest) exactly when they
	// render alike (ir.Render); sameIR counts the pairs that did. A
	// revision that does not lower ends the current pair.
	lower     bool
	lowered   bool
	irRender  string
	irDigest  cache.Key
	irChecked int
	sameIR    int
}

func newDiffer(t testing.TB, src string) *differ {
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("base program: %v", err)
	}
	return &differ{t: t, rev: Revision{Src: src, AST: ast, Index: NewKeyIndex(ast)}, keys: SummaryKeys(ast)}
}

// step applies one batch to both front ends and compares every output:
// the patched text, the representation-only verdict, the AST with its
// positions, the keys, the invalidated names and the rejection text.
func (d *differ) step(what string, edits []Edit) {
	d.t.Helper()
	d.steps++
	want := oracleApply(d.rev.Src, d.keys, edits)
	next, trivial, invalidated, err := d.rev.Apply(edits)
	got := frontEnd{src: next.Src, trivial: trivial, invalidated: invalidated}
	if err != nil {
		got.err = err.Error()
	} else if !trivial {
		got.ast, got.keys = next.AST, next.Index.Keys()
	}
	fail := func(field string, g, w any) {
		d.t.Fatalf("%s, batch %d %+v: %s differs\n got: %v\nwant: %v\nsource:\n%s", what, d.steps, edits, field, g, w, d.rev.Src)
	}
	switch {
	case got.err != want.err:
		fail("rejection", got.err, want.err)
	case got.src != want.src:
		fail("patched text", got.src, want.src)
	case got.trivial != want.trivial:
		fail("representation-only verdict", got.trivial, want.trivial)
	case !reflect.DeepEqual(got.ast, want.ast):
		fail("AST", dump(got.ast), dump(want.ast))
	case !reflect.DeepEqual(got.keys, want.keys):
		fail("keys", len(got.keys), len(want.keys))
	case !reflect.DeepEqual(got.invalidated, want.invalidated):
		fail("invalidated", got.invalidated, want.invalidated)
	}
	switch {
	case err != nil:
		d.rejected++
		return
	case trivial:
		// The verdict is sound: the shared parse is the new text's parse
		// (checked on the small programs; the oracle agreed on the verdict).
		if len(next.Src) > 1<<14 {
		} else if ast, perr := lang.Parse(next.Src); perr != nil || !reflect.DeepEqual(ast, d.rev.AST) {
			d.t.Fatalf("%s, batch %d %+v: representation-only edit changed the parse (%v)", what, d.steps, edits, perr)
		}
		d.trivial++
	default:
		d.semantic++
		if shares(next.AST, d.rev.AST) {
			d.spliced++
		}
		d.keys = want.keys
		if d.lower {
			d.checkLowering(what, next.AST)
		}
	}
	d.rev = next
}

// checkLowering lowers ast and compares it with the previous lowering.
func (d *differ) checkLowering(what string, ast *lang.Program) {
	d.t.Helper()
	p, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		d.lowered = false
		return
	}
	r, k := ir.Render(p), ir.Digest(p)
	if d.lowered {
		d.irChecked++
		if (r == d.irRender) != (k == d.irDigest) {
			d.t.Fatalf("%s, batch %d: render equal %v, digest equal %v", what, d.steps, r == d.irRender, k == d.irDigest)
		}
		if k == d.irDigest {
			d.sameIR++
		}
	}
	d.lowered, d.irRender, d.irDigest = true, r, k
}

// shares reports whether a and b have a function declaration in common.
func shares(a, b *lang.Program) bool {
	old := make(map[*lang.FuncDecl]bool, len(b.Funcs))
	for _, f := range b.Funcs {
		old[f] = true
	}
	for _, f := range a.Funcs {
		if old[f] {
			return true
		}
	}
	return false
}

// dump renders a program for a failure message.
func dump(p *lang.Program) string {
	if p == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s @%s; ", g.Name, g.Pos)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "func %s @%s (%d stmts); ", f.Name, f.Pos, len(f.Body.Stmts))
	}
	return b.String()
}

// corpus returns the test programs and the programs embedded in the
// examples.
func corpus(t testing.TB) map[string]string {
	out := make(map[string]string)
	files, _ := filepath.Glob("../../testdata/*.cn")
	more, _ := filepath.Glob("../../examples/*/*.cn")
	for _, f := range append(files, more...) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(b)
	}
	raw := regexp.MustCompile("(?s)`([^`]*func [^`]*)`")
	mains, _ := filepath.Glob("../../examples/*/main.go")
	for _, f := range mains {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range raw.FindAllStringSubmatch(string(b), -1) {
			if _, err := lang.Parse(m[1]); err == nil {
				out[fmt.Sprintf("%s#%d", f, i)] = m[1]
			}
		}
	}
	if len(out) < 20 {
		t.Fatalf("corpus has only %d programs", len(out))
	}
	return out
}

// randomBatch draws one edit batch against src: line replacements,
// insertions and deletions, deleted braces, renamed functions, new
// globals and functions (between two others, or above the first
// declaration), indented declarations, CRLF text and bad spans.
func randomBatch(r *rand.Rand, src string, k int) (string, []Edit) {
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	n := len(lines)
	line := func() int { return 1 + r.Intn(n) }
	var funcLines []int
	for i, l := range lines {
		if strings.HasPrefix(l, "func ") {
			funcLines = append(funcLines, i+1)
		}
	}
	funcLine := func() int {
		if len(funcLines) == 0 {
			return line()
		}
		return funcLines[r.Intn(len(funcLines))]
	}
	name := fmt.Sprintf("nf%d", k)
	switch r.Intn(16) {
	case 0:
		l := line()
		return "comment", []Edit{{l, l + 1, lines[l-1] + " // c" + fmt.Sprint(k) + "\n"}}
	case 1:
		l := line()
		return "trailing blanks", []Edit{{l, l + 1, lines[l-1] + "  \t\n"}}
	case 2:
		l := line()
		return "number", []Edit{{l, l + 1, regexp.MustCompile(`\d+`).ReplaceAllString(lines[l-1], fmt.Sprint(k)) + "\n"}}
	case 3:
		l := line()
		return "insert statement", []Edit{{l, l, "  zz" + fmt.Sprint(k) + " = malloc();\n"}}
	case 4:
		l := line()
		return "insert blank and comment", []Edit{{l, l, "\n// note\n"}}
	case 5:
		l := line()
		e := min(n+1, l+1+r.Intn(3))
		return "delete lines", []Edit{{l, e, ""}}
	case 6:
		for i := 0; i < 8; i++ {
			if l := line(); strings.TrimSpace(lines[l-1]) == "}" {
				return "delete brace", []Edit{{l, l + 1, ""}}
			}
		}
		return "delete brace (none found)", nil
	case 7:
		l := funcLine()
		renamed := regexp.MustCompile(`^func (\w+)`).ReplaceAllString(lines[l-1], "func "+name)
		return "rename function", []Edit{{l, l + 1, renamed + "\n"}}
	case 8:
		l := funcLine()
		return "add global", []Edit{{l, l, "global g" + name + ";\n"}}
	case 9:
		l := funcLine()
		return "new function between two", []Edit{{l, l, "func " + name + "(a) {\n  b = a;\n  free(b);\n}\n"}}
	case 10:
		return "above first declaration", []Edit{{1, 1, "// header\nglobal h" + name + ";\n"}}
	case 11:
		l := line()
		return "CRLF text", []Edit{{l, l + 1, lines[l-1] + "\r\n"}}
	case 12:
		l := funcLine()
		return "indented declaration", []Edit{{l, l + 1, "  " + lines[l-1] + "\n"}}
	case 13:
		l := funcLine()
		dup := regexp.MustCompile(`^func (\w+)`).FindStringSubmatch(lines[l-1])
		if dup == nil {
			return "duplicate (none found)", nil
		}
		return "duplicate function", []Edit{{l, l, "func " + dup[1] + "() {\n}\n"}}
	case 14:
		a, b := line(), line()
		if a > b {
			a, b = b, a
		}
		if a == b {
			return "two edits (collapsed)", []Edit{{a, a + 1, lines[a-1] + " // one\n"}}
		}
		return "two edits", []Edit{{b, b + 1, "  yy = 1;\n"}, {a, a + 1, lines[a-1] + "\n\n"}}
	default:
		return "bad span", []Edit{{n + 2, n + 3, "x\n"}}
	}
}

// TestFrontEndDifferential checks the edit path against the oracle over
// random batches on every corpus program and example.
func TestFrontEndDifferential(t *testing.T) {
	progs := corpus(t)
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	r := rand.New(rand.NewSource(21))
	total, semantic, trivial, rejected, spliced, lowered, sameIR := 0, 0, 0, 0, 0, 0, 0
	for _, name := range names {
		d := newDiffer(t, progs[name])
		d.lower = true
		d.checkLowering(name, d.rev.AST)
		for k := 0; k < 30; k++ {
			what, edits := randomBatch(r, d.rev.Src, k)
			d.step(name+": "+what, edits)
		}
		total += d.steps
		semantic += d.semantic
		trivial += d.trivial
		rejected += d.rejected
		spliced += d.spliced
		lowered += d.irChecked
		sameIR += d.sameIR
	}
	if total < 500 || semantic == 0 || trivial == 0 || rejected == 0 || spliced < semantic/2 || lowered == 0 {
		t.Fatalf("batches: %d total, %d semantic (%d spliced, %d lowered), %d trivial, %d rejected", total, semantic, spliced, lowered, trivial, rejected)
	}
	t.Logf("%d batches: %d semantic (%d spliced; %d lowered after a lowering, %d of them to the same program), %d representation-only, %d rejected",
		total, semantic, spliced, lowered, sameIR, trivial, rejected)
}

// TestFrontEndEditStream checks the edit path against the oracle over
// the saves of the edit-session benchmark's stream (workload.EditStream),
// seeds 1 and 1631.
func TestFrontEndEditStream(t *testing.T) {
	saves := 60
	if testing.Short() {
		saves = 20
	}
	for _, seed := range []int64{1, 1631} {
		s, err := workload.NewEditStream(workload.EditSessionSpec(seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		d := newDiffer(t, s.Source())
		for k := 0; k < saves; k++ {
			sv := s.Next()
			d.step(fmt.Sprintf("seed %d: save kind %d", seed, sv.Kind), []Edit{{sv.Line, sv.Line + 1, sv.Text + "\n"}})
		}
		// Every save is one line inside a declaration: none may fall back
		// to a full parse.
		if d.semantic == 0 || d.trivial == 0 || d.rejected != 0 || d.spliced != d.semantic {
			t.Fatalf("seed %d: %d semantic (%d spliced), %d trivial, %d rejected saves",
				seed, d.semantic, d.spliced, d.trivial, d.rejected)
		}
	}
}

// FuzzFrontEnd checks the edit path against the oracle on a fuzzed
// program and a fuzzed batch of up to two edits.
func FuzzFrontEnd(f *testing.F) {
	f.Add(editBase, 2, 3, "  q = p;\n", 0, 0, "")
	f.Add(editBase, 5, 5, "func extra() {\n}\n", 1, 1, "// top\n")
	f.Add(editBase, 4, 5, "", 9, 9, "")
	f.Add(editBase, 8, 9, "func main() {\r\n", 0, 0, "")
	f.Add("global g;\nfunc main() {\n  x = &g;\n}\n", 1, 2, "global h;\nglobal g;\n", 3, 4, "  x = &h;\n")
	f.Fuzz(func(t *testing.T, src string, s1, e1 int, t1 string, s2, e2 int, t2 string) {
		if _, err := lang.Parse(src); err != nil || len(src) > 1<<12 {
			return
		}
		edits := []Edit{{s1, e1, t1}}
		if s2 != 0 || e2 != 0 {
			edits = append(edits, Edit{s2, e2, t2})
		}
		d := newDiffer(t, src)
		d.step("fuzz", edits)
		// A second, line-preserving save against the result.
		d.step("fuzz follow-up", []Edit{{1, 2, "// x\n"}})
	})
}
