package lint

import (
	"go/ast"
	"go/types"
)

// TransportSafe generalizes the PR 5 retention audit into a machine
// check: a per-round scratch message handed to an Endpoint's
// Send/SendMany must either go to an implementation marked
// transport.ScratchSafe (UDP encodes synchronously, the memory fabric
// copies on entry) or pass through CopyForSend first.
//
// Resolution rules:
//   - the receiver's static type is concrete: safe iff the type (or its
//     pointer form) implements a ScratchSafe marker interface;
//   - the receiver is interface-typed: the concrete type is unknown at
//     the call site, so the enclosing function must contain the runtime
//     guard — a type assertion (or type switch case) against
//     ScratchSafe — the way transport.GroupSender.SendGroups does;
//   - the argument derives from a CopyForSend()/Clone() call: always
//     safe.
//
// "ScratchSafe" is matched structurally (an interface type named
// ScratchSafe), so the check applies to any package that adopts the
// marker, test fixtures included.
var TransportSafe = &Analyzer{
	Name: "transportsafe",
	Doc:  "require CopyForSend when scratch messages reach a non-ScratchSafe Endpoint",
	Run:  runTransportSafe,
}

// sendMethods are the Endpoint entry points that hand a message to a
// transport.
var sendMethods = map[string]bool{
	"Send":     true,
	"SendMany": true,
}

func runTransportSafe(pass *Pass) error {
	producers := scratchProducers(pass.Module)
	if len(producers) == 0 {
		return nil
	}
	markers := scratchSafeMarkers(pass.Module)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, isProducer := pass.Directives.FuncDirective(fd, DirScratch); isProducer {
				continue
			}
			checkSends(pass, markers, producers, fd)
		}
	}
	return nil
}

// scratchSafeMarkers finds every interface type named ScratchSafe in
// the module.
func scratchSafeMarkers(m *Module) []*types.Interface {
	if cached, ok := markerCache[m]; ok {
		return cached
	}
	var markers []*types.Interface
	m.EachPackage(func(p *Package) {
		obj := p.Pkg.Scope().Lookup("ScratchSafe")
		if obj == nil {
			return
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			markers = append(markers, iface)
		}
	})
	markerCache[m] = markers
	return markers
}

var markerCache = map[*Module][]*types.Interface{}

func implementsScratchSafe(markers []*types.Interface, t types.Type) bool {
	for _, iface := range markers {
		if types.Implements(t, iface) {
			return true
		}
		if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}

func checkSends(pass *Pass, markers []*types.Interface, producers map[*types.Func]bool, fd *ast.FuncDecl) {
	t := newTaint(pass.Info, producers, fd)
	guarded := hasScratchSafeGuard(pass, markers, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !sendMethods[sel.Sel.Name] {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return true
		}
		tainted := false
		for _, arg := range call.Args {
			if t.expr(arg) {
				tainted = true
				break
			}
		}
		if !tainted {
			return true
		}
		if pass.Directives.Suppressed(DirScratchOK, fd, call) {
			return true
		}
		recv := selection.Recv()
		if _, isIface := recv.Underlying().(*types.Interface); isIface {
			if implementsScratchSafe(markers, recv) || guarded {
				return true
			}
			pass.Reportf(call.Pos(), "scratch message passed to %s.%s through an interface with no ScratchSafe guard in %s; copy with CopyForSend() first or guard the endpoint with a ScratchSafe type assertion (as transport.GroupSender.SendGroups does)", types.TypeString(recv, types.RelativeTo(pass.Pkg)), sel.Sel.Name, fd.Name.Name)
			return true
		}
		if implementsScratchSafe(markers, recv) {
			return true
		}
		pass.Reportf(call.Pos(), "scratch message passed to %s.%s, whose type is not marked transport.ScratchSafe and may retain it past the round; pass msg.CopyForSend() instead", types.TypeString(recv, types.RelativeTo(pass.Pkg)), sel.Sel.Name)
		return true
	})
}

// hasScratchSafeGuard reports whether fd contains a type assertion or
// type-switch case against a ScratchSafe marker — the dynamic form of
// the check this analyzer performs statically.
func hasScratchSafeGuard(pass *Pass, markers []*types.Interface, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ta, ok := n.(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil {
			return true
		}
		t := pass.Info.TypeOf(ta.Type)
		if t == nil {
			return true
		}
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for _, m := range markers {
				if types.Identical(iface, m) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
