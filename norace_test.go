//go:build !race

package minequiv

const raceEnabled = false
