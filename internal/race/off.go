//go:build !race

// Package race tells tests whether the race detector is active. Under
// it allocation counts are not held exact everywhere, and
// simulation-heavy tests run several times slower.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
