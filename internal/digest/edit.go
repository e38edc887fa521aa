package digest

// Edit-native entry points: the incremental layer's public contract is
// "edits in, invalidated cone out". An Edit is a line-span patch against
// the *current* revision of a source; ApplyEdits patches the text, and
// Revision.Apply carries a whole analyzed revision — text, parse and key
// index — across one batch at a cost proportional to the edit: it
// splices the text, decides on the edited lines alone whether the batch
// is representation-only, re-parses only the declarations the batch
// touched and re-keys only their reverse-reachable cone. Spans are
// expressed in lines because CanonicalSource preserves line structure,
// so line numbers are stable across the canonicalization that all
// digest keys are computed over.

import (
	"fmt"
	"sort"
	"strings"

	"canary/internal/cache"
	"canary/internal/lang"
)

// Edit replaces the half-open line range [Start, End) of the current
// source with Text. Lines are 1-based; End == Start inserts before line
// Start without removing anything; End == lineCount+1 extends through
// the last line. Text is zero or more complete lines (a trailing
// newline is optional and never produces an extra empty line).
type Edit struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// ApplyEdits patches src with a set of non-overlapping line-span edits,
// all addressed against the same (pre-edit) revision, and returns the
// patched source with a single trailing newline. The edit set is
// validated as a whole before anything is applied: out-of-range spans,
// inverted spans, and overlapping spans reject the entire set, so a
// failed call leaves the caller's revision untouched by construction.
func ApplyEdits(src string, edits []Edit) (string, error) {
	p, err := Splice(src, edits)
	return p.src, err
}

// Patch is one validated edit batch spliced into a source.
type Patch struct {
	old, src string // the source and the patched text
	// lo and hi bound every edit: the batch touches only the source's
	// lines [lo, hi). delta is the patched line count minus the source's.
	lo, hi, delta int
	// sameShape: every edit replaced as many lines as it inserted.
	// sameCode: and each inserted line has the canonical form of the line
	// it replaced.
	sameShape, sameCode bool
}

// Splice validates edits against src, as ApplyEdits does, and applies
// them by byte offsets, copying the text once.
func Splice(src string, edits []Edit) (Patch, error) {
	n := strings.Count(src, "\n")
	if src != "" && src[len(src)-1] != '\n' {
		// Every line of the patched text ends in a newline.
		n++
		src += "\n"
	}
	sorted := edits
	if len(edits) > 1 {
		sorted = append([]Edit(nil), edits...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Start != sorted[j].Start {
				return sorted[i].Start < sorted[j].Start
			}
			return sorted[i].End < sorted[j].End
		})
	}
	size := len(src)
	p := Patch{lo: n + 1, hi: 1, sameShape: true}
	for i, e := range sorted {
		if e.Start < 1 {
			return Patch{}, fmt.Errorf("digest: edit %d: start line %d is below 1", i, e.Start)
		}
		if e.End < e.Start {
			return Patch{}, fmt.Errorf("digest: edit %d: end line %d precedes start line %d", i, e.End, e.Start)
		}
		if e.End > n+1 {
			return Patch{}, fmt.Errorf("digest: edit %d: end line %d is beyond the source (%d lines)", i, e.End, n)
		}
		if i > 0 {
			prev := sorted[i-1]
			// Pure insertions at the same point are order-ambiguous;
			// everything else must cover disjoint spans. An insertion
			// immediately followed by a replacement starting at the same
			// line is fine: the (Start, End) sort puts the insertion
			// first, and it is applied first.
			if prev.End > e.Start || (prev.Start == e.Start && prev.End == e.End) {
				return Patch{}, fmt.Errorf("digest: edits %d and %d overlap", i-1, i)
			}
		}
		added := textLineCount(e.Text)
		p.delta += added - (e.End - e.Start)
		p.sameShape = p.sameShape && added == e.End-e.Start
		p.lo, p.hi = min(p.lo, e.Start), max(p.hi, e.End)
		size += len(e.Text) + 1
	}
	if len(sorted) == 0 {
		p.lo = 1
	}

	var b strings.Builder
	b.Grow(size)
	// src[:done] is copied, and line doneLine starts at done.
	done, doneLine := 0, 1
	p.sameCode = p.sameShape
	for _, e := range sorted {
		off, _ := lang.LineStart(src, done, doneLine, e.Start)
		b.WriteString(src[done:off])
		text := strings.TrimSuffix(e.Text, "\n")
		if e.Text != "" {
			b.WriteString(text)
			b.WriteByte('\n')
		}
		done, _ = lang.LineStart(src, off, e.Start, e.End)
		doneLine = e.End
		if p.sameCode {
			p.sameCode = sameCode(src[off:done], text)
		}
	}
	b.WriteString(src[done:])
	p.old, p.src = src, b.String()
	if p.src == "" {
		p.src = "\n"
	}
	return p, nil
}

// textLineCount is how many lines replacement text inserts: none for "",
// and at most one trailing newline is absorbed.
func textLineCount(text string) int {
	if text == "" {
		return 0
	}
	return strings.Count(strings.TrimSuffix(text, "\n"), "\n") + 1
}

// Text is the patched text, as ApplyEdits returns it.
func (p *Patch) Text() string { return p.src }

// Span returns the source lines [lo, hi) that contain every edit, and
// the patched line count minus the source's.
func (p *Patch) Span() (lo, hi, delta int) { return p.lo, p.hi, p.delta }

// RepresentationOnly reports whether the patch leaves CanonicalSource
// unchanged. When every edit keeps its line count, the canonical forms of
// the replaced and the inserted lines, compared as the text was spliced,
// decide it exactly, for the lines in between are untouched and stay in
// place; otherwise the two revisions' canonical sources are compared
// whole.
func (p *Patch) RepresentationOnly() bool {
	if p.sameShape {
		return p.sameCode
	}
	return CanonicalSource(p.old) == CanonicalSource(p.src)
}

// sameCode reports whether the newline-terminated lines of old and the
// lines of text, as many, have pairwise the same canonical form.
func sameCode(old, text string) bool {
	for old != "" {
		was, rest, _ := strings.Cut(old, "\n")
		now, more, _ := strings.Cut(text, "\n")
		old, text = rest, more
		if canonicalLine(was) != canonicalLine(now) {
			return false
		}
	}
	return true
}

// canonicalLine is one line of CanonicalSource's output.
func canonicalLine(l string) string {
	return strings.TrimRight(lang.StripLineComment(l), " \t\r")
}

// Invalidated diffs two per-function summary-key maps and returns the
// sorted names whose digest changed or is new — the functions a warm
// session must re-analyze. Because SummaryKeys folds in transitively
// reachable callees, this is the full reverse-reachable cone of the
// edited functions, not just the functions whose bodies moved.
func Invalidated(oldKeys, newKeys map[string]cache.Key) []string {
	var out []string
	for name, nk := range newKeys {
		if ok, exists := oldKeys[name]; !exists || ok != nk {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Revision is one revision of a program as the edit path holds it: its
// text, its parse (lang.Parse's result for Src, or a previous Apply's)
// and the key index of that parse. Index may be nil (a live session
// without a warm store keys nothing at open); the first semantic edit
// then builds it from AST.
type Revision struct {
	Src   string
	AST   *lang.Program
	Index *KeyIndex
}

// Apply applies one edit batch to r. A representation-only batch (the
// canonical source is unchanged, so every token, digest and finding is
// too) returns trivial with a next revision that shares r's parse and
// index. Any other batch re-parses the declarations it touched and
// returns the new parse, its key index and the sorted names whose
// summary key changed or is new. The result equals, byte for byte, that
// of ApplyEdits, lang.Parse, SummaryKeys and Invalidated run over the
// whole program. A rejected batch — an invalid span set, or a patch that
// no longer parses ("patched source: " and the parser's error) — leaves
// r as it was.
func (r Revision) Apply(edits []Edit) (next Revision, trivial bool, invalidated []string, err error) {
	p, err := Splice(r.Src, edits)
	if err != nil {
		return Revision{}, false, nil, err
	}
	if p.RepresentationOnly() {
		return Revision{Src: p.src, AST: r.AST, Index: r.Index}, true, nil, nil
	}
	ast, fresh, err := lang.Reparse(r.AST, p.src, p.lo, p.hi, p.delta)
	if err != nil {
		return Revision{}, false, nil, fmt.Errorf("patched source: %w", err)
	}
	ix := r.Index
	if ix == nil {
		ix = NewKeyIndex(r.AST)
	}
	ix, invalidated = ix.Update(ast, fresh)
	return Revision{Src: p.src, AST: ast, Index: ix}, false, invalidated, nil
}
