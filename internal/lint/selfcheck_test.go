package lint_test

import (
	"path/filepath"
	"testing"

	"adaptivegossip/internal/lint"
)

// TestModuleIsClean runs every gossiplint analyzer over the real module,
// so `go test ./...` fails the moment a hot-path or atomics contract
// regression lands. It is the same sweep CI runs via
// `make lint`; the AllocsPerRun benchmarks remain the dynamic backstop
// for the static hot-path claims.
//
// On the atomics side it enforces what was first an audit result:
// non-test code in this module uses typed atomics — atomic.Uint64 and
// friends — exclusively, so mixed atomic/plain access and 32-bit
// misalignment of a 64-bit word cannot be written. typedatomics fails
// the sweep on any sync/atomic package-level function.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	m, err := lint.LoadModule(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.Run(m, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	lint.SortDiagnostics(m.Fset, diags)
	for _, d := range diags {
		pos := m.Fset.Position(d.Pos)
		t.Errorf("%s: %s (%s)", pos, d.Message, d.Analyzer)
	}
}
