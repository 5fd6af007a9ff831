//go:build race

package minequiv

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
