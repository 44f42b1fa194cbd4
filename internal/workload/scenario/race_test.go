//go:build race

package scenario

// raceEnabled reports a -race build: its sync.Pool drops a random quarter of
// what is put in it, so a test of recycling cannot count on a Put.
const raceEnabled = true
