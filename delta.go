package canary

// Findings deltas: the wire-and-fold representation of "what changed"
// between two revisions of a live session. DiffReports computes a
// longest-common-subsequence diff over report identities, so folding a
// delta into the previous findings reconstructs the next findings
// exactly — byte-identical, not merely equivalent. That exactness is
// what lets the session contract promise that the accumulated deltas of
// any edit sequence equal a cold full analysis of the final source.

import (
	"errors"
	"fmt"
)

// Edit is a line-span patch against the current revision of a live
// session's source: replace the half-open line range [Start, End) with
// Text. Lines are 1-based; Start == End inserts without deleting. It
// mirrors internal/digest.Edit, which documents the exact semantics.
type Edit struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// IndexedReport is a report plus its position in the *new* findings
// list, so a fold can place additions exactly where a full analysis
// would have emitted them.
type IndexedReport struct {
	Index  int    `json:"index"`
	Report Report `json:"report"`
}

// FindingsDelta describes how one edit batch changed a session's
// findings. Resolved holds ascending indexes into the previous
// findings; Added holds new reports with their indexes in the new
// findings; Unchanged counts reports present in both. FoldDelta applies
// a delta to the previous findings and reproduces the new findings
// byte-for-byte.
type FindingsDelta struct {
	// Seq is the session revision this delta produced (0 for open).
	Seq int `json:"seq"`
	// Reanalyzed reports whether the pipeline re-ran; false means the
	// edit was representation-only (comments, whitespace) and the
	// previous findings were carried forward without any analysis. It is
	// true for an early-cutoff save too: that save was parsed, summarized
	// and lowered, and kept the previous findings because it lowered to
	// the same program.
	Reanalyzed bool `json:"reanalyzed"`
	// Invalidated names the functions whose summary digests the edit
	// changed — the reverse-reachable cone the warm re-run re-derived.
	Invalidated []string        `json:"invalidated,omitempty"`
	Added       []IndexedReport `json:"added,omitempty"`
	Resolved    []int           `json:"resolved,omitempty"`
	Unchanged   int             `json:"unchanged"`
}

// reportIdentity is the equality key for diffing: the full rendered
// value, so two reports are "the same finding" only when every field
// (kind, verdict, sites, trace) is identical. Anything weaker would let
// a fold drift from the cold analysis it must reproduce.
func reportIdentity(r Report) string { return fmt.Sprintf("%#v", r) }

// DiffReports computes the findings delta from prev to next using an
// LCS over report identities. Reports the diff pairs up are counted
// Unchanged; everything else becomes Resolved (from prev) or Added
// (into next). FoldDelta(prev, DiffReports(prev, next)) == next always.
func DiffReports(prev, next []Report) *FindingsDelta {
	n, m := len(prev), len(next)
	pid := make([]string, n)
	for i, r := range prev {
		pid[i] = reportIdentity(r)
	}
	nid := make([]string, m)
	for j, r := range next {
		nid[j] = reportIdentity(r)
	}
	// lcs[i][j] = length of the LCS of prev[i:] and next[j:].
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if pid[i] == nid[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	d := &FindingsDelta{}
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case pid[i] == nid[j]:
			d.Unchanged++
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			d.Resolved = append(d.Resolved, i)
			i++
		default:
			d.Added = append(d.Added, IndexedReport{Index: j, Report: next[j]})
			j++
		}
	}
	for ; i < n; i++ {
		d.Resolved = append(d.Resolved, i)
	}
	for ; j < m; j++ {
		d.Added = append(d.Added, IndexedReport{Index: j, Report: next[j]})
	}
	return d
}

// FoldDelta applies a findings delta to the previous findings and
// returns the new findings: resolved reports are dropped, added reports
// are placed at their recorded indexes, and the survivors fill the
// remaining slots in order. It validates the delta's internal
// consistency so a corrupted or misapplied delta fails loudly instead
// of silently producing a findings list no analysis ever emitted.
func FoldDelta(prev []Report, d *FindingsDelta) ([]Report, error) {
	if d == nil {
		return nil, errors.New("canary: fold: nil delta")
	}
	resolved := make(map[int]bool, len(d.Resolved))
	last := -1
	for _, idx := range d.Resolved {
		if idx < 0 || idx >= len(prev) {
			return nil, fmt.Errorf("canary: fold: resolved index %d out of range (%d previous findings)", idx, len(prev))
		}
		if idx <= last {
			return nil, fmt.Errorf("canary: fold: resolved indexes not strictly ascending at %d", idx)
		}
		resolved[idx] = true
		last = idx
	}
	kept := make([]Report, 0, len(prev)-len(resolved))
	for i, r := range prev {
		if !resolved[i] {
			kept = append(kept, r)
		}
	}
	if d.Unchanged != len(kept) {
		return nil, fmt.Errorf("canary: fold: delta says %d unchanged, previous findings leave %d", d.Unchanged, len(kept))
	}
	total := len(kept) + len(d.Added)
	out := make([]Report, total)
	used := make([]bool, total)
	for _, a := range d.Added {
		if a.Index < 0 || a.Index >= total {
			return nil, fmt.Errorf("canary: fold: added index %d out of range (%d new findings)", a.Index, total)
		}
		if used[a.Index] {
			return nil, fmt.Errorf("canary: fold: duplicate added index %d", a.Index)
		}
		out[a.Index] = a.Report
		used[a.Index] = true
	}
	k := 0
	for i := range out {
		if !used[i] {
			out[i] = kept[k]
			k++
		}
	}
	// An empty findings list folds to nil, matching what Analyze returns
	// for a clean program — so folded state stays byte-identical (JSON
	// included) to a cold run, not merely element-equal.
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
