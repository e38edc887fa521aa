package core

import (
	"canary/internal/guard"
	"canary/internal/ir"
)

// ptsEntry is one guarded points-to fact: the variable may point to o
// under g.
type ptsEntry struct {
	o ir.ObjID
	g *guard.Formula
}

// ptsRow is the guarded points-to set of one variable, sorted by object.
// Nearly every set is a singleton, so a row is a short slice searched
// linearly rather than a map.
type ptsRow []ptsEntry

// find returns the position of o in r, or the position it would be
// inserted at, and whether it is present.
func (r ptsRow) find(o ir.ObjID) (int, bool) {
	for i, e := range r {
		if e.o >= o {
			return i, e.o == o
		}
	}
	return len(r), false
}

// csrRows lays values out as compressed sparse rows: row r's values are
// vals[start[r]:start[r+1]], in the order each added them. each must add
// the same values on both of its calls (one counts, one fills).
func csrRows[T any](rows int, each func(add func(row int, v T))) (start []int32, vals []T) {
	start = make([]int32, rows+1)
	each(func(r int, _ T) { start[r+1]++ })
	for r := 1; r <= rows; r++ {
		start[r] += start[r-1]
	}
	vals = make([]T, start[rows])
	// Filling row r moves start[r] to the end of the row, which is where
	// row r+1 starts: shifting the array up by one restores it.
	each(func(r int, v T) {
		vals[start[r]] = v
		start[r]++
	})
	copy(start[1:], start[:rows])
	start[0] = 0
	return start, vals
}
