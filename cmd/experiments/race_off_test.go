//go:build !race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
