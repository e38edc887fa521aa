//go:build race

package ir

// raceEnabled reports a -race build, under which the slow replays of the
// tests shorten.
const raceEnabled = true
