package lang

import (
	"sort"
	"strings"
)

// Reparse parses src, an edited revision of the source prev was parsed
// from: the edit replaced prev's lines [lo, hi) (1-based, half-open; lo
// == hi is a pure insertion before line lo) and changed the line count
// by delta. It re-lexes and re-parses only the whole-line region that
// covers the declarations the span touches, and splices the result
// between prev's untouched declarations, which it reuses pointer for
// pointer. When delta is not zero every later declaration's positions
// move, so the region then runs to the end of the source.
//
// fresh lists the function declarations parsed anew. Every other function
// of prog is one of prev's.
//
// The region is bounded by lines on which a declaration starts in column
// 1, so no token of a neighbouring declaration shares a line with it.
// Whenever the region does not parse as whole declarations (a deleted
// "}" moves a boundary, say), or a spliced name duplicates another, or
// prev is nil, Reparse runs one full Parse instead; its rejections and
// their error text are therefore Parse's own.
func Reparse(prev *Program, src string, lo, hi, delta int) (prog *Program, fresh []*FuncDecl, err error) {
	if prev != nil {
		if prog, fresh, ok := reparseRegion(prev, src, lo, hi, delta); ok {
			return prog, fresh, nil
		}
	}
	if prog, err = Parse(src); err != nil {
		return nil, nil, err
	}
	return prog, prog.Funcs, nil
}

func reparseRegion(prev *Program, src string, lo, hi, delta int) (*Program, []*FuncDecl, bool) {
	// The region is prev's lines [first, last); last < 0 runs to the end
	// of the source.
	first, last := 1, -1
	bound := func(p Pos) {
		if p.Col != 1 {
			return
		}
		if p.Line <= lo && p.Line > first {
			first = p.Line
		}
		if p.Line >= hi && (last < 0 || p.Line < last) {
			last = p.Line
		}
	}
	for _, g := range prev.Globals {
		bound(g.Pos)
	}
	for _, f := range prev.Funcs {
		bound(f.Pos)
	}
	if delta != 0 {
		last = -1
	}
	start, end, ok := lineSpan(src, first, last)
	if !ok {
		return nil, nil, false
	}

	// The lexer starts at the region's first line, so its positions are
	// those a full parse assigns. It reads a copy of the region: names are
	// substrings of what the lexer reads, and a declaration that outlives
	// many edits must not keep the whole text of its revision alive.
	p := &parser{lx: &Lexer{src: strings.Clone(src[start:end]), line: first, col: 1}}
	p.advance()
	part, err := p.parseProgram()
	if err != nil || p.lexErr != nil {
		return nil, nil, false
	}

	// Declarations are in source order: prev's [i, j) are the region's.
	from := func(n int, line func(int) int, at int) int {
		return sort.Search(n, func(k int) bool { return at >= 0 && line(k) >= at })
	}
	gLine := func(k int) int { return prev.Globals[k].Pos.Line }
	fLine := func(k int) int { return prev.Funcs[k].Pos.Line }
	gi, gj := from(len(prev.Globals), gLine, first), from(len(prev.Globals), gLine, last)
	fi, fj := from(len(prev.Funcs), fLine, first), from(len(prev.Funcs), fLine, last)
	if clash(part.Funcs, prev.Funcs[:fi]) || clash(part.Funcs, prev.Funcs[fj:]) {
		return nil, nil, false
	}
	return &Program{
		Globals: splice(prev.Globals[:gi], part.Globals, prev.Globals[gj:]),
		Funcs:   splice(prev.Funcs[:fi], part.Funcs, prev.Funcs[fj:]),
	}, part.Funcs, true
}

// lineSpan returns the byte offsets in src of the starts of lines first
// and last (1-based); last < 0 stands for the end of src. ok is false
// when src has fewer lines than that.
func lineSpan(src string, first, last int) (start, end int, ok bool) {
	if start, ok = LineStart(src, 0, 1, first); !ok || last < 0 {
		return start, len(src), ok
	}
	end, ok = LineStart(src, start, first, last)
	return start, end, ok
}

// clash reports whether a function of fresh shares its name with one of
// kept.
func clash(fresh, kept []*FuncDecl) bool {
	if len(fresh) == 0 {
		return false
	}
	names := make(map[string]bool, len(fresh))
	for _, g := range fresh {
		names[g.Name] = true
	}
	for _, f := range kept {
		if names[f.Name] {
			return true
		}
	}
	return false
}

// splice concatenates prefix, mid and suffix. Like the parser's appends,
// it returns nil for no declarations.
func splice[D any](prefix, mid, suffix []D) []D {
	n := len(prefix) + len(mid) + len(suffix)
	if n == 0 {
		return nil
	}
	out := make([]D, 0, n)
	return append(append(append(out, prefix...), mid...), suffix...)
}
