package lint

import (
	"go/ast"
	"go/types"
)

// cleansingMethods detach a value from the per-round scratch state: the
// result of calling one of these on a scratch value is an independent
// copy with its own lifetime.
var cleansingMethods = map[string]bool{
	"CopyForSend": true,
	"Clone":       true,
}

// scratchProducers returns the module's //gossip:scratch-annotated
// functions: calls to these yield per-round scratch values.
func scratchProducers(m *Module) map[*types.Func]bool {
	if p, ok := producerCache[m]; ok {
		return p
	}
	producers := map[*types.Func]bool{}
	m.EachPackage(func(p *Package) {
		for fn := range p.Directives.ByFunc {
			if _, ok := p.Directives.FuncDirective(fn, DirScratch); !ok {
				continue
			}
			if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
				producers[obj.Origin()] = true
			}
		}
	})
	producerCache[m] = producers
	return producers
}

var producerCache = map[*Module]map[*types.Func]bool{}

// taint tracks, within one function, which local variables hold
// per-round scratch (values produced — directly or via assignment
// chains — by //gossip:scratch functions).
type taint struct {
	info      *types.Info
	producers map[*types.Func]bool
	objs      map[types.Object]bool
}

// newTaint runs a flow-insensitive fixpoint over fd's assignments.
func newTaint(info *types.Info, producers map[*types.Func]bool, fd *ast.FuncDecl) *taint {
	t := &taint{info: info, producers: producers, objs: map[types.Object]bool{}}
	if fd.Body == nil {
		return t
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				if len(node.Rhs) == 1 && len(node.Lhs) > 1 {
					// x, y := f(): a producer call taints every result.
					if t.expr(node.Rhs[0]) {
						for _, lhs := range node.Lhs {
							changed = t.markObj(lhs) || changed
						}
					}
					return true
				}
				for i := range node.Lhs {
					if i < len(node.Rhs) && t.expr(node.Rhs[i]) {
						changed = t.markObj(node.Lhs[i]) || changed
					}
				}
			case *ast.ValueSpec:
				for i, v := range node.Values {
					if t.expr(v) {
						if len(node.Names) == len(node.Values) {
							changed = t.markObj(node.Names[i]) || changed
						} else {
							for _, name := range node.Names {
								changed = t.markObj(name) || changed
							}
						}
					}
				}
			case *ast.RangeStmt:
				if t.expr(node.X) {
					if node.Key != nil {
						changed = t.markObj(node.Key) || changed
					}
					if node.Value != nil {
						changed = t.markObj(node.Value) || changed
					}
				}
			}
			return true
		})
	}
	return t
}

func (t *taint) markObj(lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := t.info.Defs[id]
	if obj == nil {
		obj = t.info.Uses[id]
	}
	if obj == nil || t.objs[obj] {
		return false
	}
	t.objs[obj] = true
	return true
}

// expr reports whether e evaluates to (or contains) scratch. Values of
// non-reference types (ints copied out of a scratch slice, lengths,
// field scalars) cannot retain scratch memory and are never tainted.
func (t *taint) expr(e ast.Expr) bool {
	if tp := t.info.TypeOf(e); tp != nil && !refLike(tp, nil) {
		return false
	}
	switch node := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := t.info.Uses[node]
		if obj == nil {
			obj = t.info.Defs[node]
		}
		return obj != nil && t.objs[obj]
	case *ast.SelectorExpr:
		return t.expr(node.X)
	case *ast.IndexExpr:
		return t.expr(node.X)
	case *ast.SliceExpr:
		return t.expr(node.X)
	case *ast.StarExpr:
		return t.expr(node.X)
	case *ast.UnaryExpr:
		return t.expr(node.X)
	case *ast.CompositeLit:
		for _, elt := range node.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if t.expr(kv.Value) {
					return true
				}
				continue
			}
			if t.expr(elt) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// A cleansing call launders scratch into an owned copy.
		if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok && cleansingMethods[sel.Sel.Name] {
			return false
		}
		callee := staticCallee(t.info, node)
		return callee != nil && t.producers[callee]
	}
	return false
}

// refLike reports whether a value of type t can hold a reference to
// scratch memory: pointers, slices, maps, channels, funcs, interfaces,
// and structs or arrays containing any of those. seen guards recursive
// types.
func refLike(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return refLike(u.Elem(), seen)
	}
	return true // type params and anything exotic: stay conservative
}

// selectorRoot walks to the base of a selector/index chain, reporting
// the root object and whether the chain passes through a pointer
// dereference or map/slice indirection (meaning the store escapes the
// local frame).
func selectorRoot(info *types.Info, e ast.Expr) (root types.Object, escapes bool) {
	for {
		switch node := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[node]
			if obj == nil {
				obj = info.Defs[node]
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return obj, true // package-level variable: always escapes
			}
			return obj, escapes
		case *ast.SelectorExpr:
			if bt := info.TypeOf(node.X); bt != nil {
				if _, ptr := bt.Underlying().(*types.Pointer); ptr {
					escapes = true
				}
			}
			e = node.X
		case *ast.IndexExpr:
			if bt := info.TypeOf(node.X); bt != nil {
				switch bt.Underlying().(type) {
				case *types.Map, *types.Slice, *types.Pointer:
					escapes = true // heap-backed containers
				}
			}
			e = node.X
		case *ast.StarExpr:
			escapes = true
			e = node.X
		default:
			return nil, escapes
		}
	}
}
