package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer: its name
// ("lang.parse", "core.build", ...), its interval relative to the
// recorder's epoch, the span that caused it (-1 for an operation's root)
// and the operation (request) it belongs to.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Wall is the span's duration.
func (s Span) Wall() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. It is used from one
// goroutine: the traced replay is sequential by design, so siblings never
// overlap and self times partition each operation exactly.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, parent, req int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: r.now()})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) { r.spans[id].End = r.now() }

// Call runs fn inside a span named name under parent.
func (r *Recorder) Call(name string, parent int, fn func()) {
	id := r.Begin(name, parent, r.spans[parent].Req)
	fn()
	r.End(id)
}

// Spans returns every recorded span in the order they were opened.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteJSON writes the spans as one JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.spans)
}

// SelfTimes computes, for the tree rooted at root, each span's self time:
// its duration minus the part of its interval its children cover. It
// fails when the tree is malformed — a child outside its parent's
// interval or two overlapping siblings — because then self times no
// longer partition the root's wall time. The result maps span IDs of the
// tree to their self times.
func SelfTimes(spans []Span, root int) (map[int]time.Duration, error) {
	children := make(map[int][]Span)
	inTree := map[int]bool{root: true}
	// Spans are opened in order, so a parent always precedes its children,
	// and an operation's spans are contiguous.
	for _, s := range spans[root+1:] {
		if s.Req != spans[root].Req {
			break
		}
		if inTree[s.Parent] {
			inTree[s.ID] = true
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(inTree))
	for id := range inTree {
		p := spans[id]
		if p.End < p.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", id, p.Name)
		}
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		last := p.Start
		for _, c := range kids {
			if c.Start < p.Start || c.End > p.End {
				return nil, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", c.ID, c.Name, id, p.Name)
			}
			if c.Start < last {
				return nil, fmt.Errorf("span %d (%s) overlaps a sibling under %d (%s)", c.ID, c.Name, id, p.Name)
			}
			covered += c.Wall()
			last = c.End
		}
		self[id] = p.Wall() - covered
	}
	return self, nil
}

// partitionSlack is the ε within which an operation's self times must sum
// to its wall time. In a well-formed tree the sum is exact; the slack
// only absorbs clock rounding.
const partitionSlack = time.Microsecond

// checkPartition verifies that the self times of the tree rooted at root
// sum to the root's wall time within partitionSlack.
func checkPartition(spans []Span, root int, self map[int]time.Duration) error {
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	wall := spans[root].Wall()
	if diff := sum - wall; diff > partitionSlack || diff < -partitionSlack {
		return fmt.Errorf("self times of %s sum to %v, wall is %v", spans[root].Name, sum, wall)
	}
	return nil
}
