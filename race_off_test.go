//go:build !race

package adaptivegossip

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a quarter of what is Put, so Publish's
// zero-allocation contract, which rests on pooled requests being there
// next time, cannot be exact.
const raceEnabled = false
