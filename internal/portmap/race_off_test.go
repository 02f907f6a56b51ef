//go:build !race

package portmap

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
