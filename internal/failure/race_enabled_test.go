//go:build race

package failure

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is Put on purpose: the overlay's pooled delivery records make
// per-message allocation ceilings unholdable there, and the tests that
// state them only drive their traffic.
const raceEnabled = true
