package lint

import "go/types"

// TypedAtomics requires the typed atomics of sync/atomic (atomic.Uint64,
// atomic.Int32, atomic.Pointer and friends) and forbids its
// package-level functions (atomic.AddUint64, atomic.LoadInt32, ...). A
// typed atomic cannot be read or written plainly, and the runtime
// aligns its 64-bit forms on 32-bit targets, so the two hazards of raw
// atomics — a field accessed atomically in one place and plainly in
// another, and a misaligned 64-bit word that faults on GOARCH=386 —
// cannot be written at all.
var TypedAtomics = &Analyzer{
	Name: "typedatomics",
	Doc:  "forbid sync/atomic package-level functions; use the typed atomics",
	Run:  runTypedAtomics,
}

func runTypedAtomics(pass *Pass) error {
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			continue
		}
		if fn.Signature().Recv() != nil {
			continue // a method of a typed atomic
		}
		pass.Reportf(id.Pos(), "atomic.%s on a raw word; declare the field as a typed atomic (atomic.Int64, atomic.Uint64, ...) and use its methods", fn.Name())
	}
	return nil
}
