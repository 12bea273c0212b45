//go:build !race

package overlay

const raceEnabled = false
