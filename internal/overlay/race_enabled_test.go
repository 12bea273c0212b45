//go:build race

package overlay

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is Put on purpose: pooled-record allocation ceilings cannot hold
// there, and the tests that state them only drive their traffic.
const raceEnabled = true
