package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// EditSessionSpec is the program of the edit-session benchmark: ~8 000
// generated lines with a few seeded bugs and traps, so its save stream
// has real bugs to toggle.
func EditSessionSpec(seed int64) Spec {
	return Spec{
		Name: "edit-session", Lines: 8000, Seed: seed,
		TruePositives: 4, CanaryFPs: 2, Fig2Traps: 3, OrderTraps: 2, LockTraps: 2, SaberTraps: 2, Fan: 3,
	}
}

// SaveKind classifies one save of an EditStream.
type SaveKind int

// The save kinds, in the proportions of one block of ten: five
// representation-only saves, two helper-arithmetic edits, two
// module-body edits and one bug toggle.
const (
	SaveTrivial SaveKind = iota // a comment or trailing blanks change
	SaveLeaf                    // a calcN helper's arithmetic changes
	SaveModule                  // a constant in a filler module's body changes
	SaveToggle                  // a tp_ worker's `free(payload);` is deleted or restored
)

var saveBlock = []SaveKind{
	SaveTrivial, SaveTrivial, SaveTrivial, SaveTrivial, SaveTrivial,
	SaveLeaf, SaveLeaf, SaveModule, SaveModule, SaveToggle,
}

// Semantic reports whether a save of kind k changes the canonical source.
func (k SaveKind) Semantic() bool { return k != SaveTrivial }

// Save is one save of an EditStream: line Line (1-based) becomes Text,
// so line numbers never shift.
type Save struct {
	Kind SaveKind
	Line int
	Text string
}

// EditStream is the edit-session benchmark's seeded save stream against
// one generated program, in blocks of ten whose kind mix is fixed and
// whose order and targets are seeded. It is the same stream, save for
// save, that perfbench replays from its own copy (perfbench/edits.go).
// No test ties the two together: a change to either generator must be
// made to both, until perfbench replays this one.
type EditStream struct {
	r       *rand.Rand
	lines   []string
	helpers []int // "  t1 = a + b;" in calcN helpers
	bodies  []int // "  x0 = 1;" in filler module bodies
	frees   []int // "  free(payload);" in tp_ workers
	sites   map[int]bool
	block   []SaveKind
	n       int
}

// NewEditStream generates spec's program and the stream of saves on it.
func NewEditStream(spec Spec, seed int64) (*EditStream, error) {
	src := Generate(spec)
	s := &EditStream{
		r:     rand.New(rand.NewSource(seed)),
		lines: strings.Split(strings.TrimSuffix(src, "\n"), "\n"),
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
			s.helpers = append(s.helpers, i)
		case strings.HasPrefix(fn, "filler_mod") && l == "  x0 = 1;":
			s.bodies = append(s.bodies, i)
		case strings.HasPrefix(fn, "tp_uaf_worker") && l == freeLine:
			s.frees = append(s.frees, i)
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

const freeLine = "  free(payload);"

// Source is the stream's current revision.
func (s *EditStream) Source() string { return strings.Join(s.lines, "\n") + "\n" }

// Next generates the next save and applies it to the stream's own text.
func (s *EditStream) Next() Save {
	if len(s.block) == 0 {
		s.block = append([]SaveKind(nil), saveBlock...)
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	s.n++
	var line int
	var text string
	switch kind {
	case SaveTrivial:
		// Never a semantic edit site: those must keep their own text.
		for line = s.r.Intn(len(s.lines)); s.sites[line]; line = s.r.Intn(len(s.lines)) {
		}
		code := s.lines[line]
		if i := strings.Index(code, "//"); i >= 0 {
			code = code[:i]
		}
		code = strings.TrimRight(code, " ")
		if s.n%2 == 0 {
			text = fmt.Sprintf("%s  // save %d", code, s.n)
		} else {
			text = code + strings.Repeat(" ", 1+s.n%3)
		}
	case SaveLeaf, SaveModule:
		sites := s.helpers
		if kind == SaveModule {
			sites = s.bodies
		}
		line = sites[s.r.Intn(len(sites))]
		// A constant no earlier save used: constants are part of the
		// structural digest, so every such save invalidates the function.
		if kind == SaveLeaf {
			text = fmt.Sprintf("  t1 = a + %d;", s.n)
		} else {
			text = fmt.Sprintf("  x0 = %d;", s.n+1)
		}
	case SaveToggle:
		line = s.frees[s.r.Intn(len(s.frees))]
		if s.lines[line] == freeLine {
			text = "  // free(payload) deleted"
		} else {
			text = freeLine
		}
	}
	s.lines[line] = text
	return Save{Kind: kind, Line: line + 1, Text: text}
}
