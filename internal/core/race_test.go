//go:build race

package core

// raceEnabled is set in builds with the race detector, whose
// instrumentation allocates on its own schedule: testing.AllocsPerRun
// then counts allocations no machine made.
const raceEnabled = true
