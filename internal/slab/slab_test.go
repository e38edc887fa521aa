package slab

import (
	"slices"
	"testing"
)

// TestInsertKeepsNeighbours grows many rows side by side out of one slab
// and checks that no row's growth overwrites another's elements.
func TestInsertKeepsNeighbours(t *testing.T) {
	var s Slab[int]
	rows := make([][]int, 50)
	want := make([][]int, len(rows))
	for step := 0; step < 40; step++ {
		for r := range rows {
			if (step+r)%3 == 0 {
				continue
			}
			v := step*100 + r
			i := (step * 7) % (len(rows[r]) + 1)
			rows[r] = s.Insert(rows[r], i, v)
			want[r] = slices.Insert(want[r], i, v)
		}
	}
	for r := range rows {
		if !slices.Equal(rows[r], want[r]) {
			t.Fatalf("row %d = %v, want %v", r, rows[r], want[r])
		}
	}
}

// TestMakeCapacity checks that a carved slice has exactly the requested
// capacity, small or large.
func TestMakeCapacity(t *testing.T) {
	var s Slab[byte]
	for _, n := range []int{1, 3, 16, 255, 256, 257, 5000} {
		if got := s.Make(n); len(got) != 0 || cap(got) != n {
			t.Errorf("Make(%d): len %d cap %d", n, len(got), cap(got))
		}
	}
}
