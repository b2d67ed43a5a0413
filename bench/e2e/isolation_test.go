package e2e

import (
	"encoding/json"
	"io"
	"os/exec"
	"strings"
	"testing"
)

// The end-to-end harness must reach the program only through the root
// package's public API: this package, and any package of the benchmark
// it pulls in, may import the standard library and "adaptivegossip" and
// nothing else. A refactor of internal/... can then never change what
// the end-to-end numbers measure.
func TestHarnessImportsOnlyStdlibAndTheRootPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	out, err := exec.Command("go", "list", "-deps", "-json=ImportPath,Standard,Imports", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type pkg struct {
		ImportPath string
		Standard   bool
		Imports    []string
	}
	standard := map[string]bool{}
	var bench []pkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p pkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		standard[p.ImportPath] = p.Standard
		if strings.HasPrefix(p.ImportPath, "adaptivegossip/bench") {
			bench = append(bench, p)
		}
	}
	if len(bench) == 0 {
		t.Fatal("go list did not report this package")
	}
	for _, p := range bench {
		for _, imp := range p.Imports {
			if !standard[imp] && imp != "adaptivegossip" {
				t.Errorf("%s imports %s: the end-to-end harness may use only the standard library and the root package", p.ImportPath, imp)
			}
		}
	}
}
