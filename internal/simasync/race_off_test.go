//go:build !race

package simasync

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
