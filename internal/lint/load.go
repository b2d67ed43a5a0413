package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Imports    []string
	ImportMap  map[string]string
	Module     *struct {
		Path string
		Main bool
	}
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadModule type-checks the packages matched by patterns (and, for
// analysis purposes, every module-internal dependency they pull in)
// rooted at dir. It shells out to `go list -deps -export -json`, which
// yields both the module file sets and ready-made export data for
// out-of-module dependencies, then type-checks the module's packages
// from source in dependency order so that all packages share one type
// object space.
//
// The loader is self-contained: no network, no GOPATH assumptions, no
// golang.org/x/tools.
func LoadModule(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	m := &Module{Fset: fset, Pkgs: map[string]*Package{}}

	// Export-data importer for everything outside the module (stdlib and
	// pinned deps): `go list -export` leaves compiled export files in
	// the build cache and hands us their paths.
	byPath := map[string]*listedPackage{}
	for _, p := range listed {
		byPath[p.ImportPath] = p
	}
	imp := &moduleImporter{
		module: m,
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			p, ok := byPath[path]
			if !ok || p.Export == "" {
				return nil, fmt.Errorf("gossiplint: no export data for %q", path)
			}
			return os.Open(p.Export)
		}),
	}

	// `go list -deps` emits a depth-first post-order: every package
	// appears after all its dependencies, so one forward sweep
	// type-checks the module bottom-up.
	for _, p := range listed {
		if p.Module == nil || !p.Module.Main {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("gossiplint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if m.Path == "" {
			m.Path = p.Module.Path
		}
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		m.Pkgs[p.ImportPath] = pkg
		m.Paths = append(m.Paths, p.ImportPath)
	}
	if len(m.Paths) == 0 {
		return nil, fmt.Errorf("gossiplint: patterns %v matched no module packages under %s", patterns, dir)
	}
	return m, nil
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,Imports,ImportMap,Module,Incomplete,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("gossiplint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listedPackage
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("gossiplint: decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// checkPackage type-checks one listed package from source using imp to
// resolve imports, returning the lint view of the package.
func checkPackage(fset *token.FileSet, imp types.Importer, p *listedPackage) (*Package, error) {
	if len(p.GoFiles) == 0 {
		return nil, fmt.Errorf("gossiplint: %s: no Go files", p.ImportPath)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("gossiplint: %v", err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: imp}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("gossiplint: type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{
		Path:       p.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
		Directives: ParseDirectives(fset, files),
	}, nil
}

// moduleImporter resolves imports preferring packages already
// type-checked from source (module packages, so their type objects are
// shared across the whole module) and falling back to compiled export
// data for everything else.
type moduleImporter struct {
	module *Module
	gc     types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := mi.module.Pkgs[path]; ok {
		return p.Pkg, nil
	}
	return mi.gc.Import(path)
}
