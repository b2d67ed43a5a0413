//go:build !race

package transport

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a quarter of what is Put, so contracts that rest on a
// pooled object being there next time cannot be exact.
const raceEnabled = false
