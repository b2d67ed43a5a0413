package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the gossiplint binary built once for the whole test run.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gossiplint-test")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "gossiplint")
	out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building gossiplint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeModule materializes a throwaway module from path->content pairs
// and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !asExitError(err, &ee) {
		t.Fatalf("running gossiplint: %v", err)
	}
	return ee.ExitCode()
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

func TestStandaloneFindsSeededViolation(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module vetfixture\n\ngo 1.24\n",
		"hot.go": `package vetfixture

//gossip:hotpath
func Tick(buf []int) []int {
	spill := make([]int, 8)
	return append(buf, spill...)
}
`,
	})
	cmd := exec.Command(binPath, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 2 {
		t.Fatalf("exit code = %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(string(out), "heap allocation: make") || !strings.Contains(string(out), "(hotpathalloc)") {
		t.Fatalf("missing hotpathalloc diagnostic in output:\n%s", out)
	}
	if !strings.Contains(string(out), "hot.go:5:") {
		t.Fatalf("diagnostic not positioned at hot.go:5:\n%s", out)
	}
}

func TestStandaloneCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module vetfixture\n\ngo 1.24\n",
		"ok.go": `package vetfixture

//gossip:hotpath
func Tick(buf []int, n int) []int {
	buf = append(buf, n)
	return buf
}
`,
	})
	cmd := exec.Command(binPath, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
	}
	if len(strings.TrimSpace(string(out))) != 0 {
		t.Fatalf("expected no output on a clean module, got:\n%s", out)
	}
}
