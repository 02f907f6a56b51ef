//go:build race

package xrand

// raceEnabled reports whether the race detector is instrumenting this
// build. Race instrumentation makes sync.Pool drop items at random, so the
// allocation test is meaningless under it.
const raceEnabled = true
