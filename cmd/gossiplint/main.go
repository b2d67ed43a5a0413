// Command gossiplint runs the adaptivegossip static-analysis suite
// (internal/lint) over the module: hotpathalloc, typedatomics and the
// //gossip: directive validator.
//
//	gossiplint [packages]        # defaults to ./...
//
// The whole module is loaded and type-checked at once, so every
// analyzer sees across package boundaries.
//
// Exit status: 0 clean, 1 usage or internal error, 2 diagnostics found.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"adaptivegossip/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gossiplint: ")
	os.Exit(run(os.Args[1:]))
}

// run loads the module rooted at the working directory and applies
// every analyzer with full cross-package visibility.
func run(patterns []string) int {
	dir, err := os.Getwd()
	if err != nil {
		log.Print(err)
		return 1
	}
	m, err := lint.LoadModule(dir, patterns...)
	if err != nil {
		log.Print(err)
		return 1
	}
	diags, err := lint.Run(m, lint.All())
	if err != nil {
		log.Print(err)
		return 1
	}
	for _, d := range diags {
		pos := m.Fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", name, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
