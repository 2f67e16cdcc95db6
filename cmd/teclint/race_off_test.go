//go:build !race

package main

// raceEnabled reports whether this test binary was built with the race
// detector. See TestLintWallTimeBudget.
const raceEnabled = false
