package smt

// VerdictStore is an inert placeholder for the deleted cross-run verdict
// store. Nothing stores or replays a verdict through it.
//
// Deprecated: kept only because perfbench still names it; the ROADMAP item
// "perfbench: an honest clock for short operations, and a replay of what a
// save runs" drops that use, and this declaration goes with it.
type VerdictStore struct{}

// NewVerdictStore returns an inert VerdictStore; maxEntries is ignored.
//
// Deprecated: see VerdictStore.
func NewVerdictStore(maxEntries int) *VerdictStore { return &VerdictStore{} }
