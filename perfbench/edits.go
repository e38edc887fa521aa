package main

import (
	"fmt"
	"math/rand"
	"strings"

	"canary"
	"canary/internal/workload"
)

// The edit stream of the edit-session workload: a seeded sequence of
// saves against one generated program, each a one-line replacement (so
// line numbers never shift), in blocks of ten whose kind mix is fixed and
// whose order and targets are seeded:
//
//   - five representation-only saves: a comment or trailing blanks change
//     on some line, leaving the canonical source untouched;
//   - two leaf edits: a calcN helper's arithmetic changes, which
//     invalidates the helper and every caller up to main;
//   - two module-body edits: a constant in a filler module's body changes;
//   - one bug toggle: `free(payload);` is deleted from, or restored to, a
//     tp_ worker, so the findings lose or regain that module's bug.
//
// The stream keeps its own copy of the text and the expected finding set,
// so the session under test is checked against the generator, not against
// itself.

type saveKind int

const (
	saveTrivial saveKind = iota
	saveLeaf
	saveModule
	saveToggle
)

func (k saveKind) semantic() bool { return k != saveTrivial }

var saveBlock = []saveKind{
	saveTrivial, saveTrivial, saveTrivial, saveTrivial, saveTrivial,
	saveLeaf, saveLeaf, saveModule, saveModule, saveToggle,
}

type save struct {
	kind  saveKind
	edits []canary.Edit
}

// editSite is a line the stream rewrites, with its original text.
type editSite struct {
	line int // 0-based
	orig string
	mod  moduleID // the tp_ module of a free site
}

type editStream struct {
	r       *rand.Rand
	lines   []string
	helpers []editSite   // "  t1 = a + b;" in calcN helpers
	bodies  []editSite   // "  x0 = 1;" in filler module bodies
	frees   []editSite   // "  free(payload);" in tp_ workers
	sites   map[int]bool // lines of all the above
	want    map[moduleID]bool
	block   []saveKind
	n       int
}

func newEditStream(spec workload.Spec, seed int64) (*editStream, error) {
	src := workload.Generate(spec)
	s := &editStream{
		r:     rand.New(rand.NewSource(seed)),
		lines: strings.Split(strings.TrimSuffix(src, "\n"), "\n"),
		want:  seededBugs(spec),
		sites: make(map[int]bool),
	}
	fn := ""
	for i, l := range s.lines {
		if strings.HasPrefix(l, "func ") {
			fn = strings.TrimPrefix(l, "func ")
			fn = fn[:strings.IndexByte(fn, '(')]
			continue
		}
		switch {
		case strings.HasPrefix(fn, "calc") && l == "  t1 = a + b;":
			s.helpers = append(s.helpers, editSite{line: i, orig: l})
		case strings.HasPrefix(fn, "filler_mod") && l == "  x0 = 1;":
			s.bodies = append(s.bodies, editSite{line: i, orig: l})
		case strings.HasPrefix(fn, "tp_uaf_worker") && l == "  free(payload);":
			kind, id, _ := moduleOf(fn)
			s.frees = append(s.frees, editSite{line: i, orig: l, mod: module(kind, id)})
		default:
			continue
		}
		s.sites[i] = true
	}
	if len(s.helpers) == 0 || len(s.bodies) == 0 || len(s.frees) == 0 {
		return nil, fmt.Errorf("edit stream: generated program lacks edit sites (%d helpers, %d bodies, %d frees)",
			len(s.helpers), len(s.bodies), len(s.frees))
	}
	return s, nil
}

// source is the stream's current revision.
func (s *editStream) source() string { return strings.Join(s.lines, "\n") + "\n" }

// next generates the next save, applies it to the stream's own copy and
// expected findings, and returns it.
func (s *editStream) next() save {
	if len(s.block) == 0 {
		s.block = append([]saveKind(nil), saveBlock...)
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	s.n++
	var line int
	var text string
	switch kind {
	case saveTrivial:
		// Never a semantic edit site: those must keep their own text.
		for line = s.r.Intn(len(s.lines)); s.sites[line]; line = s.r.Intn(len(s.lines)) {
		}
		code := strings.TrimRight(stripComment(s.lines[line]), " ")
		if s.n%2 == 0 {
			text = fmt.Sprintf("%s  // save %d", code, s.n)
		} else {
			text = code + strings.Repeat(" ", 1+s.n%3)
		}
	case saveLeaf, saveModule:
		sites := s.helpers
		if kind == saveModule {
			sites = s.bodies
		}
		line = sites[s.r.Intn(len(sites))].line
		// A constant no earlier save used: constants are part of the
		// structural digest, so every such save invalidates the function.
		if kind == saveLeaf {
			text = fmt.Sprintf("  t1 = a + %d;", s.n)
		} else {
			text = fmt.Sprintf("  x0 = %d;", s.n+1)
		}
	case saveToggle:
		site := s.frees[s.r.Intn(len(s.frees))]
		line = site.line
		if s.lines[line] == site.orig {
			text = "  // free(payload) deleted"
			delete(s.want, site.mod)
		} else {
			text = site.orig
			s.want[site.mod] = true
		}
	}
	s.lines[line] = text
	return save{kind: kind, edits: []canary.Edit{{Start: line + 1, End: line + 2, Text: text + "\n"}}}
}

func stripComment(l string) string {
	if i := strings.Index(l, "//"); i >= 0 {
		return l[:i]
	}
	return l
}
