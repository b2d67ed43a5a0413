// Package lint is gossiplint: a suite of static analyzers that enforce
// the repository's hot-path and atomics contracts at compile time. The
// hot-path rule reaches branches no AllocsPerRun contract executes; the
// scratch-lifetime rule is held by tests on the paths that carry
// scratch (see API_STABILITY.md), not here.
//
// The package is a self-contained go/analysis-style framework built on
// the standard library alone (go/ast, go/types, go list): the build
// environment pins external modules, so golang.org/x/tools is not a
// dependency. The API deliberately mirrors go/analysis (Analyzer, Pass,
// Diagnostic) with one deliberate difference: a Pass can see the whole
// loaded module (Pass.Module), because the contracts being checked are
// inherently cross-package (a hot function in internal/runtime calls
// into internal/gossip) and the stdlib has no facts mechanism.
//
// Analyzers are driven by directive comments, which are part of the
// project contract (see API_STABILITY.md):
//
//	//gossip:hotpath        this function must not allocate, nor may
//	                        anything it (transitively) calls in-module
//	//gossip:allocok reason the next statement (or this whole function)
//	                        is a known cold branch; allocation is fine
//
// The suite: hotpathalloc, typedatomics, plus the directive validator
// itself. cmd/gossiplint is the whole-module front end.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the help text.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries the inputs of one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Directives holds the parsed //gossip: comments of this package.
	Directives *DirectiveSet

	// Module is the whole loaded module, for cross-package analyses.
	Module *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one type-checked module package.
type Package struct {
	Path       string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	Directives *DirectiveSet
}

// Module is the full set of type-checked packages under analysis,
// sharing one FileSet and one type-object space (an object defined in
// package A is the identical *types.Var / *types.Func when seen from
// package B).
type Module struct {
	Path string
	Fset *token.FileSet
	// Pkgs is keyed by import path.
	Pkgs map[string]*Package
	// Sorted import paths, for deterministic iteration.
	Paths []string
}

// EachPackage visits the module's packages in import-path order.
func (m *Module) EachPackage(fn func(*Package)) {
	for _, path := range m.Paths {
		fn(m.Pkgs[path])
	}
}

// Run applies each analyzer to each package of the module and returns
// the merged diagnostics sorted by position.
func Run(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, path := range m.Paths {
			p := m.Pkgs[path]
			pass := &Pass{
				Analyzer:   a,
				Fset:       m.Fset,
				Files:      p.Files,
				Pkg:        p.Pkg,
				Info:       p.Info,
				Directives: p.Directives,
				Module:     m,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, path, err)
			}
		}
	}
	SortDiagnostics(m.Fset, diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// All returns the full gossiplint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DirectiveAnalyzer,
		HotPathAlloc,
		TypedAtomics,
	}
}
