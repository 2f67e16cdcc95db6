//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector. TestLintWallTimeBudget skips under it: the detector slows
// the sweep several-fold, so the wall-time budget would measure the
// instrumentation, not the analyzers.
const raceEnabled = true
