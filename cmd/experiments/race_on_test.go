//go:build race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build. The golden report is a single-goroutine computation, so running it
// instrumented adds minutes and no coverage.
const raceEnabled = true
