//go:build !race

package xrand

const raceEnabled = false
