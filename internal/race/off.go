//go:build !race

// Package race tells tests whether the race detector is active. Under
// it sync.Pool drops a quarter of what is Put, so a zero-allocation
// contract that rests on a pooled object being there next time cannot
// be exact, and simulation-heavy tests run several times slower.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
