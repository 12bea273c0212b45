//go:build !race

package failure

const raceEnabled = false
