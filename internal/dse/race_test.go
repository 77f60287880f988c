//go:build race

package dse

// raceEnabled is set in builds with the race detector, which makes the
// work-count replay several times slower without changing a count.
const raceEnabled = true
