//go:build race

package core_test

// raceEnabled reports whether the race detector is instrumenting this
// build. Race instrumentation changes sync.Pool caching and allocates on
// its own, so the allocation-budget test is meaningless under it.
const raceEnabled = true
