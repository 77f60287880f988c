//go:build !race

package dse

// raceEnabled is set in builds with the race detector (race_test.go).
const raceEnabled = false
