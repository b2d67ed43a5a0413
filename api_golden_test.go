package adaptivegossip

// The golden API test freezes the package's exported surface: every
// exported type (with its exported fields and interface methods),
// function, method, constant and variable, rendered with its signature.
// An exported alias of a struct in an internal package is rendered with
// that struct's exported fields, since callers set and read them.
// An accidental rename, removal or signature change fails here before
// it breaks downstream callers; deliberate changes are recorded with
//
//	go test -run TestPublicAPISurface -update-api
//
// and reviewed as part of the diff (see API_STABILITY.md).

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api_surface.txt from the current source")

const apiGoldenFile = "testdata/api_surface.txt"

func TestPublicAPISurface(t *testing.T) {
	got := strings.Join(exportedSurface(t), "\n") + "\n"
	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(apiGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", apiGoldenFile)
		return
	}
	wantBytes, err := os.ReadFile(apiGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-api to create it): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(strings.TrimSpace(got), "\n")
	wantLines := strings.Split(strings.TrimSpace(want), "\n")
	gotSet := map[string]bool{}
	for _, l := range gotLines {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range wantLines {
		wantSet[l] = true
	}
	for _, l := range wantLines {
		if !gotSet[l] {
			t.Errorf("removed from public API: %s", l)
		}
	}
	for _, l := range gotLines {
		if !wantSet[l] {
			t.Errorf("added to public API: %s", l)
		}
	}
	t.Error("public API surface changed; if intentional, run: go test -run TestPublicAPISurface -update-api")
}

// exportedSurface renders every exported declaration of the root
// package (non-test files) as one sorted line per symbol.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var lines []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				lines = append(lines, funcLines(d)...)
			case *ast.GenDecl:
				lines = append(lines, genLines(d)...)
				lines = append(lines, aliasFieldLines(t, fset, f, d)...)
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// aliasFieldLines renders the exported fields of the struct each
// exported alias in d names in an internal package of this module, as
// the fields of the alias.
func aliasFieldLines(t *testing.T, fset *token.FileSet, f *ast.File, d *ast.GenDecl) []string {
	t.Helper()
	var lines []string
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Assign.IsValid() || !ts.Name.IsExported() {
			continue
		}
		sel, ok := ts.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		dir, ok := internalDir(f, sel.X.(*ast.Ident).Name)
		if !ok {
			continue
		}
		if st := internalStruct(t, fset, dir, sel.Sel.Name); st != nil {
			lines = append(lines, fieldLines(ts.Name.Name, st)...)
		}
	}
	return lines
}

// internalDir returns the directory of the package f imports as name,
// when that is an internal package of this module.
func internalDir(f *ast.File, name string) (string, bool) {
	const prefix = "adaptivegossip/internal/"
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		if imp.Name != nil && imp.Name.Name == name || imp.Name == nil && filepath.Base(path) == name {
			return strings.TrimPrefix(path, "adaptivegossip/"), true
		}
	}
	return "", false
}

// internalStruct returns the struct type declared as name in the
// non-test files of dir, nil when name is not a struct there.
func internalStruct(t *testing.T, fset *token.FileSet, dir, name string) *ast.StructType {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				if ts := spec.(*ast.TypeSpec); ts.Name.Name == name {
					st, _ := ts.Type.(*ast.StructType)
					return st
				}
			}
		}
	}
	return nil
}

func funcLines(d *ast.FuncDecl) []string {
	if !d.Name.IsExported() {
		return nil
	}
	sig := types.ExprString(d.Type)
	if d.Recv == nil {
		return []string{fmt.Sprintf("func %s %s", d.Name.Name, sig)}
	}
	recv := types.ExprString(d.Recv.List[0].Type)
	// Methods on unexported receivers are not public API.
	base := strings.TrimPrefix(recv, "*")
	if !ast.IsExported(base) {
		return nil
	}
	return []string{fmt.Sprintf("method (%s) %s %s", recv, d.Name.Name, sig)}
}

func genLines(d *ast.GenDecl) []string {
	var lines []string
	switch d.Tok {
	case token.CONST, token.VAR:
		kind := "const"
		if d.Tok == token.VAR {
			kind = "var"
		}
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.IsExported() {
					lines = append(lines, fmt.Sprintf("%s %s", kind, name.Name))
				}
			}
		}
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			lines = append(lines, typeLines(ts)...)
		}
	}
	return lines
}

func typeLines(ts *ast.TypeSpec) []string {
	name := ts.Name.Name
	if ts.Assign.IsValid() {
		return []string{fmt.Sprintf("type %s = %s", name, types.ExprString(ts.Type))}
	}
	switch typ := ts.Type.(type) {
	case *ast.StructType:
		return append([]string{fmt.Sprintf("type %s struct", name)}, fieldLines(name, typ)...)
	case *ast.InterfaceType:
		lines := []string{fmt.Sprintf("type %s interface", name)}
		for _, m := range typ.Methods.List {
			mt := types.ExprString(m.Type)
			for _, mname := range m.Names {
				if mname.IsExported() {
					lines = append(lines, fmt.Sprintf("ifacemethod %s.%s %s", name, mname.Name, mt))
				}
			}
		}
		return lines
	default:
		return []string{fmt.Sprintf("type %s %s", name, types.ExprString(ts.Type))}
	}
}

// fieldLines renders the exported fields of st as fields of name.
func fieldLines(name string, st *ast.StructType) []string {
	var lines []string
	for _, field := range st.Fields.List {
		ft := types.ExprString(field.Type)
		for _, fname := range field.Names {
			if fname.IsExported() {
				lines = append(lines, fmt.Sprintf("field %s.%s %s", name, fname.Name, ft))
			}
		}
		if len(field.Names) == 0 { // embedded
			lines = append(lines, fmt.Sprintf("field %s.%s (embedded)", name, ft))
		}
	}
	return lines
}
