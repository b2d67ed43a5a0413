package traced

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"strconv"
	"strings"
	"testing"
)

// Every import of adaptivegossip/internal/<layer> lives in the file
// adapt_<layer>.go, which imports no other internal package: when a
// layer is refactored, one small file needs re-pointing and the driver,
// the span recorder and the ledger do not change.
func TestInternalImportsLiveInOneAdaptorFilePerLayer(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "adaptivegossip/internal/"
	fset := token.NewFileSet()
	adaptors := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "adaptivegossip" {
				t.Errorf("%s imports the root package: the traced driver goes to the layers directly", name)
			}
			if !strings.HasPrefix(p, prefix) {
				continue
			}
			if want := "adapt_" + path.Base(p) + ".go"; name != want {
				t.Errorf("%s imports %s, which belongs in %s", name, p, want)
			}
			adaptors++
		}
	}
	if adaptors == 0 {
		t.Error("found no adaptor file at all")
	}
}
