//go:build !race

package runtime

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a quarter of what is Put, so Do's zero-allocation
// contract, which rests on the pooled request being there next time,
// cannot be exact.
const raceEnabled = false
