package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"adaptivegossip/internal/lint"
	"adaptivegossip/internal/lint/linttest"
)

// The fixture modules under testdata/ each seed violations one
// analyzer must catch — and legal patterns it must not flag. Every
// expectation is a `// want` comment in the fixture itself.

// The hotpath fixture also seeds the typed-atomics rule: a raw
// atomic.AddUint64 on a hot counter is the case it exists for.
func TestHotPathAllocFixture(t *testing.T) {
	linttest.Run(t, "testdata/hotpath", lint.HotPathAlloc, lint.TypedAtomics)
}

func TestDirectiveFixture(t *testing.T) {
	linttest.Run(t, "testdata/directives", lint.DirectiveAnalyzer)
}

// TestParseDirectivesUnit exercises the directive parser directly on
// inline sources: well-formed directives attach where they should, and
// malformed ones always produce a problem, never a silent no-op.
func TestParseDirectivesUnit(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		problems []string // substrings of expected problems, in order
		attached int      // expected total well-attached directives
	}{
		{
			name: "well formed",
			src: `package p
// Tick is hot.
//
//gossip:hotpath
func Tick() []int {
	//gossip:allocok cold branch
	x := make([]int, 4)
	return x
}
`,
			attached: 2,
		},
		{
			name:     "unknown name",
			src:      "package p\n\n//gossip:hotpat\nfunc F() {}\n",
			problems: []string{`unknown gossip directive "hotpat"`},
		},
		{
			name:     "empty name",
			src:      "package p\n\n//gossip:\nfunc F() {}\n",
			problems: []string{`unknown gossip directive ""`},
		},
		{
			name:     "hotpath on type",
			src:      "package p\n\n//gossip:hotpath\ntype T int\n",
			problems: []string{"cannot annotate a type declaration"},
		},
		{
			// The scratch-lifetime directive was retired (tests hold that
			// rule now), so a leftover annotation is a typo like any other.
			name:     "scratch on var",
			src:      "package p\n\n//gossip:" + "scratch\nvar V int\n",
			problems: []string{`unknown gossip directive "scratch"`},
		},
		{
			name:     "hotpath inside body",
			src:      "package p\n\nfunc F() {\n\t//gossip:hotpath\n\t_ = 1\n}\n",
			problems: []string{"must be part of a function declaration's doc comment"},
		},
		{
			name:     "dangling allocok",
			src:      "package p\n\nfunc F() {}\n\n//gossip:allocok orphaned\n",
			problems: []string{"not attached to any statement or function declaration"},
		},
		{
			name:     "duplicate on one decl",
			src:      "package p\n\n//gossip:hotpath\n//gossip:hotpath\nfunc F() {}\n",
			problems: []string{"duplicate //gossip:hotpath"},
			attached: 1,
		},
		{
			name:     "suppression without justification",
			src:      "package p\n\nfunc F() {\n\t//gossip:allocok\n\t_ = 1\n}\n",
			problems: []string{"//gossip:allocok needs a justification"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "src.go", tc.src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			ds := lint.ParseDirectives(fset, []*ast.File{file})
			if len(ds.Problems) != len(tc.problems) {
				t.Fatalf("got %d problems %v, want %d", len(ds.Problems), ds.Problems, len(tc.problems))
			}
			for i, want := range tc.problems {
				if !strings.Contains(ds.Problems[i].Message, want) {
					t.Errorf("problem %d = %q, want it to contain %q", i, ds.Problems[i].Message, want)
				}
			}
			total := len(ds.StmtLevel)
			for _, dirs := range ds.ByFunc {
				total += len(dirs)
			}
			if total != tc.attached {
				t.Errorf("attached directives = %d, want %d", total, tc.attached)
			}
		})
	}
}
