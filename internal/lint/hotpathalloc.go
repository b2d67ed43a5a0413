package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the zero-allocation round contract statically:
// a function annotated //gossip:hotpath — and every module function it
// transitively calls through statically-resolved edges — must not
// contain heap-allocating constructs. The dynamic counterpart is the
// AllocsPerRun suite (TestNodeTickAllocFree et al.); this analyzer
// catches the regression at compile time, in the branch the benchmark
// didn't happen to take.
//
// Flagged constructs: make/new, map and slice literals, &-escaped
// composite literals, closures that capture variables, interface
// boxing (in call arguments, assignments, returns and channel sends),
// fmt-family calls, string concatenation and string<->[]byte/[]rune
// conversions, appends that do not reuse their destination, and `go`
// statements. Cold branches (error paths, panics that should never
// fire) are exempted with //gossip:allocok <reason> on the statement
// or the whole function.
//
// Call-graph notes: edges are resolved statically from type
// information (direct calls and concrete-receiver method calls).
// Dynamic dispatch — interface method calls, function values — is not
// followed; implementations reachable only dynamically (Extension
// hooks, DeliverFunc callbacks) carry their own //gossip:hotpath
// annotation, and the AllocsPerRun tests remain the dynamic backstop.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap allocation in //gossip:hotpath functions and their in-module callees",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	hotCacheMu(pass.Module).report(pass)
	return nil
}

var hotCache = map[*Module]*hotAnalysis{}

func hotCacheMu(m *Module) *hotAnalysis {
	if ha, ok := hotCache[m]; ok {
		return ha
	}
	ha := analyzeHot(m)
	hotCache[m] = ha
	return ha
}

// funcDecl ties a declared function to its package.
type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

type hotAnalysis struct {
	fset *token.FileSet
	// index of all module function declarations by canonical object
	index map[*types.Func]funcDecl
	// hot closure: function -> the call edge that made it hot (nil for roots)
	hotVia map[*types.Func]*types.Func
	// diagnostics keyed by declaring package path
	diags map[string][]Diagnostic
}

func (ha *hotAnalysis) report(pass *Pass) {
	for _, d := range ha.diags[pass.Pkg.Path()] {
		d.Analyzer = pass.Analyzer.Name
		*pass.diags = append(*pass.diags, d)
	}
}

func analyzeHot(m *Module) *hotAnalysis {
	ha := &hotAnalysis{
		fset:   m.Fset,
		index:  map[*types.Func]funcDecl{},
		hotVia: map[*types.Func]*types.Func{},
		diags:  map[string][]Diagnostic{},
	}

	var roots []*types.Func
	m.EachPackage(func(p *Package) {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				obj = obj.Origin()
				ha.index[obj] = funcDecl{decl: fd, pkg: p}
				if _, ok := p.Directives.FuncDirective(fd, DirHotPath); ok {
					roots = append(roots, obj)
				}
			}
		}
	})

	// BFS over statically-resolved in-module call edges. Edges that
	// originate inside an allocok region are cold by declaration and do
	// not extend the hot closure.
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, seen := ha.hotVia[r]; !seen {
			ha.hotVia[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := ha.index[fn]
		if _, whole := fd.pkg.Directives.FuncDirective(fd.decl, DirAllocOK); whole {
			continue // entire function declared cold: don't even follow its calls
		}
		for _, callee := range ha.callees(fd) {
			if _, seen := ha.hotVia[callee]; seen {
				continue
			}
			ha.hotVia[callee] = fn
			queue = append(queue, callee)
		}
	}

	// Scan every hot function for allocating constructs.
	for fn := range ha.hotVia {
		ha.scanFunc(fn)
	}
	for path := range ha.diags {
		SortDiagnostics(m.Fset, ha.diags[path])
	}
	return ha
}

// callees returns the statically-resolved in-module callees of fd,
// excluding calls inside allocok-suppressed statements.
func (ha *hotAnalysis) callees(fd funcDecl) []*types.Func {
	var out []*types.Func
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fd.pkg.Directives.Suppressed(DirAllocOK, fd.decl, call) {
			return true
		}
		callee := staticCallee(fd.pkg.Info, call)
		if callee == nil {
			return true
		}
		if _, inModule := ha.index[callee]; inModule {
			out = append(out, callee)
		}
		return true
	})
	return out
}

// staticCallee resolves a call to its *types.Func when the target is
// statically known: a package function, or a method called on a
// concrete (non-interface) receiver. Dynamic calls resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, dynamic := sel.Recv().Underlying().(*types.Interface); dynamic {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok { // pkg-qualified call
			return fn.Origin()
		}
	}
	return nil
}

// hotChain renders how fn became hot: the BFS path back to its
// //gossip:hotpath root.
func (ha *hotAnalysis) hotChain(fn *types.Func) string {
	var hops []string
	for cur := fn; ; {
		parent, ok := ha.hotVia[cur]
		if !ok || parent == nil {
			if cur == fn {
				return "declared //gossip:hotpath"
			}
			hops = append(hops, funcString(cur))
			break
		}
		if cur != fn {
			hops = append(hops, funcString(cur))
		}
		cur = parent
	}
	// hops is callee..root; reverse into root..callee.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	if len(hops) > 4 {
		hops = append(hops[:1], append([]string{"…"}, hops[len(hops)-2:]...)...)
	}
	return "reached from //gossip:hotpath " + strings.Join(hops, " → ")
}

// funcString renders pkg.(*Recv).Name for diagnostics.
func funcString(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		s := types.TypeString(recv, func(p *types.Package) string { return "" })
		if strings.HasPrefix(s, "*") {
			return fmt.Sprintf("%s.(*%s).%s", fn.Pkg().Name(), strings.TrimPrefix(s, "*"), name)
		}
		return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), s, name)
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func (ha *hotAnalysis) scanFunc(fn *types.Func) {
	fd, ok := ha.index[fn]
	if !ok {
		return
	}
	if _, whole := fd.pkg.Directives.FuncDirective(fd.decl, DirAllocOK); whole {
		return
	}
	chain := ha.hotChain(fn)
	report := func(pos token.Pos, node ast.Node, format string, args ...any) {
		if fd.pkg.Directives.Suppressed(DirAllocOK, fd.decl, node) {
			return
		}
		msg := fmt.Sprintf(format, args...)
		ha.diags[fd.pkg.Path] = append(ha.diags[fd.pkg.Path], Diagnostic{
			Pos:     pos,
			Message: fmt.Sprintf("%s in hot path (%s in %s; annotate //gossip:allocok if this is a cold branch)", msg, chain, funcString(fn)),
		})
	}
	scanAllocs(fd.pkg.Info, fd.decl, report)
}

// scanAllocs walks one function body and reports allocating constructs
// through report.
func scanAllocs(info *types.Info, fd *ast.FuncDecl, report func(pos token.Pos, node ast.Node, format string, args ...any)) {
	// Seed the stack with the declaration itself so enclosing-function
	// lookups (isParamOf) work for code outside any func literal.
	stack := []ast.Node{fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch node := n.(type) {
		case *ast.CallExpr:
			scanCall(info, node, stack, report)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), node, "heap allocation: &-escaped composite literal")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(node).Underlying().(type) {
			case *types.Slice:
				report(node.Pos(), node, "heap allocation: slice literal")
			case *types.Map:
				report(node.Pos(), node, "heap allocation: map literal")
			}
		case *ast.FuncLit:
			if hostedByNonEscapingCall(info, node, stack) {
				break
			}
			if captured := capturedVars(info, node); len(captured) > 0 {
				report(node.Pos(), node, "closure captures %s (closure environments heap-allocate)", strings.Join(captured, ", "))
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isString(info.TypeOf(node)) {
				report(node.Pos(), node, "heap allocation: string concatenation")
			}
		case *ast.AssignStmt:
			scanAssignBoxing(info, node, report)
		case *ast.ReturnStmt:
			scanReturnBoxing(info, fd, node, report)
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(node.Chan).Underlying().(*types.Chan); ok {
				if boxes(info, node.Value, ch.Elem()) {
					report(node.Value.Pos(), node, "interface boxing: sending %s into chan %s", info.TypeOf(node.Value), ch.Elem())
				}
			}
		case *ast.GoStmt:
			report(node.Pos(), node, "go statement (goroutine start allocates)")
		}
		return true
	})
}

func scanCall(info *types.Info, call *ast.CallExpr, stack []ast.Node, report func(pos token.Pos, node ast.Node, format string, args ...any)) {
	fun := ast.Unparen(call.Fun)
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	// Conversions.
	if tv.IsType() {
		scanConversion(info, call, report)
		return
	}
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), call, "heap allocation: make")
			case "new":
				report(call.Pos(), call, "heap allocation: new")
			case "append":
				if !appendReusesDst(info, call, stack) {
					report(call.Pos(), call, "append does not reuse its destination (grows into a fresh backing array)")
				}
			}
			return
		}
	}
	// fmt-family calls.
	if callee := staticCallee(info, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		report(call.Pos(), call, "fmt.%s call (fmt formats through reflection and allocates)", callee.Name())
		// fall through: still check args for boxing (the []any spread).
	}
	// Interface boxing in arguments.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	scanArgBoxing(info, call, sig, report)
}

func scanConversion(info *types.Info, call *ast.CallExpr, report func(pos token.Pos, node ast.Node, format string, args ...any)) {
	if len(call.Args) != 1 {
		return
	}
	dst := info.TypeOf(call)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	dstU, srcU := dst.Underlying(), src.Underlying()
	if isString(srcU) {
		if sl, ok := dstU.(*types.Slice); ok && isByteOrRune(sl.Elem()) {
			report(call.Pos(), call, "heap allocation: string to %s conversion", dst)
		}
	}
	if isString(dstU) {
		if sl, ok := srcU.(*types.Slice); ok && isByteOrRune(sl.Elem()) {
			report(call.Pos(), call, "heap allocation: %s to string conversion", src)
		}
	}
	if _, ok := dstU.(*types.Interface); ok && boxes(info, call.Args[0], dst) {
		report(call.Pos(), call, "interface boxing: converting %s to %s", src, dst)
	}
}

func scanArgBoxing(info *types.Info, call *ast.CallExpr, sig *types.Signature, report func(pos token.Pos, node ast.Node, format string, args ...any)) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(info, arg, pt) {
			report(arg.Pos(), call, "interface boxing: passing %s as %s", info.TypeOf(arg), pt)
		}
	}
}

func scanAssignBoxing(info *types.Info, as *ast.AssignStmt, report func(pos token.Pos, node ast.Node, format string, args ...any)) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := info.TypeOf(as.Lhs[i])
		if lt == nil {
			continue
		}
		if boxes(info, as.Rhs[i], lt) {
			report(as.Rhs[i].Pos(), as, "interface boxing: assigning %s to %s", info.TypeOf(as.Rhs[i]), lt)
		}
	}
}

func scanReturnBoxing(info *types.Info, fd *ast.FuncDecl, ret *ast.ReturnStmt, report func(pos token.Pos, node ast.Node, format string, args ...any)) {
	if fd.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, field := range fd.Type.Results.List {
		t := info.TypeOf(field.Type)
		n := max(len(field.Names), 1)
		for range n {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // f() returning multiple values; no per-expr mapping
	}
	for i, res := range ret.Results {
		if boxes(info, res, resultTypes[i]) {
			report(res.Pos(), ret, "interface boxing: returning %s as %s", info.TypeOf(res), resultTypes[i])
		}
	}
}

// boxes reports whether assigning expr to a target of type dst performs
// an allocating interface conversion: dst is an interface, expr's type
// is concrete, and the value is not pointer-shaped (pointers, channels,
// maps and funcs fit an interface word directly).
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	src := tv.Type
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	case *types.TypeParam:
		return false
	}
	return true
}

// appendReusesDst recognizes the amortized-zero-alloc append shapes:
//
//	x = append(x, ...)
//	x = append(x[:0], ...)
//	x = append(x[:n:m], ...)
//	return append(param, ...)   // append-style helper
//
// The assignment forms write the result back over the slice they grew;
// the return form hands the grown parameter back to a caller that
// assigns it over its own destination, which is the same amortized
// contract one frame up. Anything else — append into a fresh variable,
// append passed straight to a call — produces a new backing array the
// moment it grows.
func appendReusesDst(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := ast.Unparen(call.Args[0])
	if sl, ok := dst.(*ast.SliceExpr); ok {
		dst = ast.Unparen(sl.X)
	}
	// Find the nearest enclosing statement-level parent of the call.
	var parent ast.Node
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = stack[i]
		break
	}
	switch p := parent.(type) {
	case *ast.AssignStmt:
		dstStr := types.ExprString(dst)
		for _, lhs := range p.Lhs {
			if types.ExprString(ast.Unparen(lhs)) == dstStr {
				return true
			}
		}
	case *ast.ReturnStmt:
		if id, ok := dst.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && isParamOf(v, stack) {
				return true
			}
		}
	}
	return false
}

// isParamOf reports whether v is declared in the parameter or result
// list of the innermost function enclosing the walk position.
func isParamOf(v *types.Var, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			ft = fn.Type
		case *ast.FuncDecl:
			ft = fn.Type
		default:
			continue
		}
		return ft.Params != nil && ft.Params.Pos() <= v.Pos() && v.Pos() <= ft.End()
	}
	return false
}

// nonEscapingClosureHosts are stdlib functions documented to call their
// func argument and discard it. A closure literal passed directly to
// one never escapes, so Go's escape analysis keeps its environment on
// the stack — no heap allocation despite the captures. The AllocsPerRun
// suite is the dynamic backstop for this assumption.
var nonEscapingClosureHosts = map[string]bool{
	"sort.Search":             true,
	"sort.Find":               true,
	"sort.Slice":              true,
	"sort.SliceStable":        true,
	"sort.SliceIsSorted":      true,
	"slices.SortFunc":         true,
	"slices.SortStableFunc":   true,
	"slices.BinarySearchFunc": true,
	"slices.IndexFunc":        true,
	"slices.ContainsFunc":     true,
}

// hostedByNonEscapingCall reports whether lit is a direct argument of a
// call to a known non-retaining stdlib function.
func hostedByNonEscapingCall(info *types.Info, lit *ast.FuncLit, stack []ast.Node) bool {
	var call *ast.CallExpr
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		call, _ = stack[i].(*ast.CallExpr)
		break
	}
	if call == nil {
		return false
	}
	isArg := false
	for _, arg := range call.Args {
		if ast.Unparen(arg) == ast.Expr(lit) {
			isArg = true
			break
		}
	}
	if !isArg {
		return false
	}
	callee := staticCallee(info, call)
	return callee != nil && nonEscapingClosureHosts[callee.FullName()]
}

func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] {
			return true
		}
		if v.IsField() {
			return true
		}
		scope := v.Parent()
		if scope == nil || scope == types.Universe {
			return true
		}
		if v.Pkg() != nil && scope == v.Pkg().Scope() {
			return true // package-level vars are not captured
		}
		// Declared outside the literal but used inside it: a capture.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
