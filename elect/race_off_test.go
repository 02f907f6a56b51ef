//go:build !race

package elect

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
