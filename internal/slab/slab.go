// Package slab carves short slices out of shared chunks, so that the many
// one- and two-element lists of an analysis (points-to rows, store sets,
// VFG adjacency lists) cost one allocation per chunk rather than one each.
package slab

// maxChunk is the element count of the largest chunk.
const maxChunk = 1024

// Slab hands out slices carved from chunks. Chunks start small and double
// up to maxChunk, so a slab that carves little wastes little. A carved
// slice has exactly the requested capacity: appending beyond it through
// Insert moves it to a larger carved slice instead of overwriting a
// neighbour. The zero value is ready to use; a Slab is not safe for
// concurrent use.
type Slab[T any] struct {
	free  []T
	chunk int // size of the last chunk
}

// Make returns an empty slice with capacity n.
func (s *Slab[T]) Make(n int) []T {
	if n > len(s.free) {
		if n > maxChunk/4 {
			return make([]T, 0, n)
		}
		s.chunk = min(max(2*s.chunk, 16), maxChunk)
		s.free = make([]T, max(s.chunk, n))
	}
	out := s.free[:0:n]
	s.free = s.free[n:]
	return out
}

// Insert returns r with e inserted at position i, moving r to a carved
// slice of about twice its capacity when it is full.
func (s *Slab[T]) Insert(r []T, i int, e T) []T {
	if len(r) == cap(r) {
		r = append(s.Make(2*len(r)+1), r...)
	}
	r = r[:len(r)+1]
	copy(r[i+1:], r[i:])
	r[i] = e
	return r
}

// Append returns r with e appended, as Insert at the end.
func (s *Slab[T]) Append(r []T, e T) []T { return s.Insert(r, len(r), e) }
