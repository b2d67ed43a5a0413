// Package directives seeds malformed //gossip: directives: the
// gossipdirective analyzer must turn every typo and misplacement into a
// diagnostic instead of a silent no-op.
package directives

// Buffer is a type, not a function: hotpath cannot apply.
//
//gossip:hotpath // want `//gossip:hotpath cannot annotate a type declaration`
type Buffer struct {
	events []int
}

// Frob carries a misspelled directive.
//
//gossip:hotpth // want `unknown gossip directive "hotpth"`
func Frob() {}

// Tick is fine: a real, well-placed directive. No diagnostics.
//
//gossip:hotpath
func (b *Buffer) Tick() []int {
	return b.events
}

// Reset duplicates a directive.
//
//gossip:hotpath
//gossip:hotpath // want `duplicate //gossip:hotpath directive on Reset`
func Reset() {}

//gossip:allocok not a function // want `cannot annotate a var declaration`
var counter int

func floating() {
	//gossip:hotpath // want `must be part of a function declaration's doc comment`
	_ = counter

	//gossip:allocok covers the next statement: fine, no diagnostic
	_ = counter
}

// A suppression directive with no justification is also a problem, but
// that case cannot be seeded here: any trailing `want` text would parse
// as the justification itself. TestParseDirectivesUnit covers it.

//gossip:allocok dangling, nothing to attach to // want `not attached to any statement or function declaration`
