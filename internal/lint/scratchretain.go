package lint

import (
	"go/ast"
	"go/types"
)

// ScratchRetain enforces the scratch-lifetime contract of PR 5
// statically: values returned by //gossip:scratch functions (the round
// Message and the slices Tick/AppendSnapshot hand out, all "valid until
// the next Tick on that node") must stay within the consuming call
// frame. Storing them — into a struct field reached through a pointer,
// a package variable, a map, a channel, a goroutine closure — retains
// memory the producing node is about to overwrite. The escape hatch is
// an explicit copy: msg.CopyForSend() (slices copied, payload bytes
// shared) or msg.Clone().
//
// Producers themselves (functions annotated //gossip:scratch) are
// exempt: they own the scratch they manage. Propagation is enforced at
// the annotation level — a function that returns scratch it obtained
// from a producer must itself be annotated //gossip:scratch, so the
// contract stays visible at every API boundary.
var ScratchRetain = &Analyzer{
	Name: "scratchretain",
	Doc:  "forbid retaining //gossip:scratch values past the call frame without CopyForSend/Clone",
	Run:  runScratchRetain,
}

func runScratchRetain(pass *Pass) error {
	producers := scratchProducers(pass.Module)
	if len(producers) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, isProducer := pass.Directives.FuncDirective(fd, DirScratch); isProducer {
				continue
			}
			checkRetention(pass, producers, fd)
		}
	}
	return nil
}

func checkRetention(pass *Pass, producers map[*types.Func]bool, fd *ast.FuncDecl) {
	t := newTaint(pass.Info, producers, fd)
	hasTaint := len(t.objs) > 0
	// Even with no tainted locals, a direct store of a producer call's
	// result (s.f = n.Tick()) must be caught; t.expr handles that.

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok && pass.Directives.Suppressed(DirScratchOK, fd, stmt) {
			// Covered by //gossip:scratchok: the flow is protected by a
			// protocol the analyzer cannot see (e.g. a conditional clone
			// keyed on delivery latency). Skip the subtree.
			return false
		}
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				if !t.expr(node.Rhs[i]) {
					continue
				}
				checkStore(pass, fd, node.Lhs[i], node.Rhs[i])
			}
		case *ast.SendStmt:
			if t.expr(node.Value) {
				pass.Reportf(node.Value.Pos(), "scratch value sent into a channel outlives the round that owns it (valid only until the next Tick); send a CopyForSend()/Clone() copy instead")
			}
		case *ast.GoStmt:
			checkGoroutine(pass, t, node)
		case *ast.ReturnStmt:
			if !hasTaint {
				return true
			}
			for _, res := range node.Results {
				if t.expr(res) {
					pass.Reportf(res.Pos(), "%s returns per-round scratch but is not annotated //gossip:scratch; annotate it so callers inherit the lifetime contract, or return a CopyForSend()/Clone() copy", fd.Name.Name)
				}
			}
		}
		return true
	})
}

// checkStore flags stores of scratch that escape the local frame.
func checkStore(pass *Pass, fd *ast.FuncDecl, lhs, rhs ast.Expr) {
	switch target := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.Info.Defs[target]
		if obj == nil {
			obj = pass.Info.Uses[target]
		}
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			pass.Reportf(rhs.Pos(), "scratch value stored in package variable %s outlives the round that owns it (valid only until the next Tick); store a CopyForSend()/Clone() copy instead", target.Name)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if _, escapes := selectorRoot(pass.Info, target); escapes {
			pass.Reportf(rhs.Pos(), "scratch value stored outside the call frame (valid only until the next Tick on the producing node); store a CopyForSend()/Clone() copy instead")
		}
	}
}

// checkGoroutine flags scratch crossing into a goroutine: captured by
// the closure or passed as an argument. The goroutine's lifetime is
// unbounded relative to the gossip round.
func checkGoroutine(pass *Pass, t *taint, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if t.expr(arg) {
			pass.Reportf(arg.Pos(), "scratch value passed to a goroutine may be read after the round ends (valid only until the next Tick); pass a CopyForSend()/Clone() copy instead")
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !t.objs[obj] {
			return true
		}
		// Captured only if declared outside the literal.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		pass.Reportf(id.Pos(), "goroutine closure captures scratch value %s (valid only until the next Tick); capture a CopyForSend()/Clone() copy instead", id.Name)
		return true
	})
}
