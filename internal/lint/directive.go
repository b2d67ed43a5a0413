package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive names recognized by the suite. Anything else after
// "//gossip:" is a diagnosable typo — silent no-ops are how annotation
// regimes rot. hotpath must sit in a function declaration's doc
// comment; allocok may also annotate a statement, and its justification
// is mandatory: an unexplained exemption is indistinguishable from a
// stale one.
const (
	DirHotPath = "hotpath" // function: no allocation in it or its in-module callees
	DirAllocOK = "allocok" // function or statement: allocation here is a known cold branch
)

// Directive is one parsed //gossip: comment, attached to a function
// declaration (Fn) or to a statement (Stmt).
type Directive struct {
	Name string
	Arg  string // trailing free text: the reason for allocok
	Pos  token.Pos
	Fn   *ast.FuncDecl
	Stmt ast.Stmt
}

// Problem is a malformed or misplaced directive.
type Problem struct {
	Pos     token.Pos
	Message string
}

// DirectiveSet is the parsed directive view of one package.
type DirectiveSet struct {
	// ByFunc maps annotated function declarations to their directives.
	ByFunc map[*ast.FuncDecl][]*Directive
	// StmtLevel holds directives attached to individual statements.
	StmtLevel []*Directive
	// Problems are the malformed directives; the directive analyzer
	// reports them.
	Problems []Problem
}

// FuncDirective returns fn's directive of the given name, if any.
func (ds *DirectiveSet) FuncDirective(fn *ast.FuncDecl, name string) (*Directive, bool) {
	for _, d := range ds.ByFunc[fn] {
		if d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// Suppressed reports whether node (inside fn) is covered by a directive
// of the given name: either fn's declaration carries it, or a statement
// carrying it encloses the node.
func (ds *DirectiveSet) Suppressed(name string, fn *ast.FuncDecl, node ast.Node) bool {
	if fn != nil {
		if _, ok := ds.FuncDirective(fn, name); ok {
			return true
		}
	}
	for _, d := range ds.StmtLevel {
		if d.Name != name || d.Stmt == nil {
			continue
		}
		if d.Stmt.Pos() <= node.Pos() && node.End() <= d.Stmt.End() {
			return true
		}
	}
	return false
}

// ParseDirectives extracts and validates the //gossip: directives of a
// package's files. Placement is strict: hotpath belongs in a function
// declaration's doc comment; allocok belongs there or on (or immediately
// above) the statement it exempts.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *DirectiveSet {
	ds := &DirectiveSet{ByFunc: map[*ast.FuncDecl][]*Directive{}}
	for _, file := range files {
		parseFileDirectives(fset, file, ds)
	}
	return ds
}

func parseFileDirectives(fset *token.FileSet, file *ast.File, ds *DirectiveSet) {
	// Comments consumed as part of a declaration's doc group.
	consumed := map[*ast.Comment]*ast.FuncDecl{}
	misplacedDoc := map[*ast.Comment]string{} // doc position on a non-func decl

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Doc != nil {
				for _, c := range d.Doc.List {
					consumed[c] = d
				}
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				for _, c := range d.Doc.List {
					misplacedDoc[c] = d.Tok.String()
				}
			}
		}
	}

	for _, group := range file.Comments {
		for _, c := range group.List {
			name, arg, ok := splitDirective(c.Text)
			if !ok {
				continue
			}
			if name != DirHotPath && name != DirAllocOK {
				ds.Problems = append(ds.Problems, Problem{
					Pos: c.Pos(),
					Message: fmt.Sprintf("unknown gossip directive %q (known: %s, %s)",
						name, DirHotPath, DirAllocOK),
				})
				continue
			}
			if name == DirAllocOK && arg == "" {
				ds.Problems = append(ds.Problems, Problem{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("//gossip:%s needs a justification: //gossip:%s <why this exemption is sound>", name, name),
				})
				continue
			}
			if fn, ok := consumed[c]; ok {
				dir := &Directive{Name: name, Arg: arg, Pos: c.Pos(), Fn: fn}
				if dup, has := ds.FuncDirective(fn, name); has {
					ds.Problems = append(ds.Problems, Problem{
						Pos:     c.Pos(),
						Message: fmt.Sprintf("duplicate //gossip:%s directive on %s (first at %s)", name, fn.Name.Name, fset.Position(dup.Pos)),
					})
					continue
				}
				ds.ByFunc[fn] = append(ds.ByFunc[fn], dir)
				continue
			}
			if tok, ok := misplacedDoc[c]; ok {
				ds.Problems = append(ds.Problems, Problem{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("//gossip:%s cannot annotate a %s declaration; it belongs on a function declaration%s", name, tok, stmtHint(name)),
				})
				continue
			}
			if name == DirHotPath {
				ds.Problems = append(ds.Problems, Problem{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("//gossip:%s must be part of a function declaration's doc comment", name),
				})
				continue
			}
			stmt := attachStmt(fset, file, c)
			if stmt == nil {
				ds.Problems = append(ds.Problems, Problem{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("//gossip:%s is not attached to any statement or function declaration", name),
				})
				continue
			}
			ds.StmtLevel = append(ds.StmtLevel, &Directive{Name: name, Arg: arg, Pos: c.Pos(), Stmt: stmt})
		}
	}
}

func stmtHint(name string) string {
	if name == DirHotPath {
		return ""
	}
	return " or a statement"
}

// splitDirective recognizes "//gossip:<name>[ arg]" comments. Go
// directive convention: no space between // and gossip.
func splitDirective(text string) (name, arg string, ok bool) {
	const prefix = "//gossip:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	name, arg, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(arg), true
}

// attachStmt finds the statement a line-level directive annotates: the
// outermost statement starting on the comment's own line (trailing
// comment) or on the line right below it (leading comment).
func attachStmt(fset *token.FileSet, file *ast.File, c *ast.Comment) ast.Stmt {
	cline := fset.Position(c.Pos()).Line
	var trailing, leading ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch fset.Position(stmt.Pos()).Line {
		case cline:
			if stmt.Pos() < c.Pos() && trailing == nil {
				trailing = stmt
			}
		case cline + 1:
			if leading == nil {
				leading = stmt
			}
		}
		return true
	})
	if trailing != nil {
		return trailing
	}
	return leading
}

// DirectiveAnalyzer reports malformed, misplaced, unknown or
// semantically empty //gossip: directives. A directive that silently
// does nothing is worse than none at all: the annotation regime only
// holds if typos fail the build.
var DirectiveAnalyzer = &Analyzer{
	Name: "gossipdirective",
	Doc:  "validate //gossip: directive comments (placement, names, applicability)",
	Run:  runDirective,
}

func runDirective(pass *Pass) error {
	for _, p := range pass.Directives.Problems {
		pass.Reportf(p.Pos, "%s", p.Message)
	}
	// Semantic validation of well-placed directives.
	for fn, dirs := range pass.Directives.ByFunc {
		for _, d := range dirs {
			if d.Name == DirHotPath && fn.Body == nil {
				pass.Reportf(d.Pos, "//gossip:hotpath on %s, which has no body to check", fn.Name.Name)
			}
		}
	}
	return nil
}
