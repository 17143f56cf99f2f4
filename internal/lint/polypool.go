package lint

import (
	"go/ast"
	"go/types"
)

// Polypool checks that every pooled polynomial or scratch buffer drawn
// from an internal/ring pool is returned on every path.
//
// Acquire/release pairs:
//
//	(*ring.Ring).GetPoly / GetPolyRaw  →  (*ring.Ring).PutPoly
//	(*ring.Ring).GetScratch            →  (*ring.Ring).PutScratch
//	(*ckks.Evaluator).DecomposeHoisted →  (*ckks.HoistedDecomposition).Release
//	(*ckks.Evaluator).NewPlainSum      →  (*ckks.PlainSum).Release
//
// A function may hand an acquired resource to its caller through a
// return value only when annotated //hennlint:transfers-ownership; calls
// to such annotated functions are themselves treated as acquires in the
// caller. Matching is by receiver type name (Ring, Evaluator,
// HoistedDecomposition, PlainSum), which keeps the analyzer's test
// fixtures self-contained.
var Polypool = &Analyzer{
	Name: "polypool",
	Doc:  "pooled ring polynomials and scratch buffers must be released on every path",
	Run:  runPairing,
}

var polypoolAcquires = []struct {
	recv, method, what string
}{
	{"Ring", "GetPoly", "pooled poly"},
	{"Ring", "GetPolyRaw", "pooled poly"},
	{"Ring", "GetScratch", "pooled scratch buffer"},
	{"Evaluator", "DecomposeHoisted", "hoisted decomposition"},
	{"Evaluator", "NewPlainSum", "plaintext-product sum"},
}

// acquire reports whether call hands its caller a pool resource (as its
// result) that must be released, and a human noun for it ("pooled poly").
func acquire(p *Pass, call *ast.CallExpr) (what string, ok bool) {
	for _, m := range polypoolAcquires {
		if _, ok := methodCall(p.Info, call, m.recv, m.method); ok {
			return m.what, true
		}
	}
	return "", false
}

// release reports the expression whose pool resource call releases.
func release(p *Pass, call *ast.CallExpr) (released ast.Expr, ok bool) {
	if _, ok := methodCall(p.Info, call, "Ring", "PutPoly"); ok && len(call.Args) == 1 {
		return call.Args[0], true
	}
	if _, ok := methodCall(p.Info, call, "Ring", "PutScratch"); ok && len(call.Args) == 1 {
		return call.Args[0], true
	}
	for _, owner := range []string{"HoistedDecomposition", "PlainSum"} {
		if recv, ok := methodCall(p.Info, call, owner, "Release"); ok {
			return recv, true
		}
	}
	return nil, false
}

// isPoolResource matches the types polypool tracks: pooled polynomials,
// hoisted decompositions, plaintext-product sums, and []uint64 scratch
// buffers.
func isPoolResource(t types.Type) bool {
	switch namedTypeName(t) {
	case "Poly", "HoistedDecomposition", "PlainSum":
		return true
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Uint64 {
			return true
		}
	}
	return false
}
