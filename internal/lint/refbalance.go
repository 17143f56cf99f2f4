package lint

import (
	"go/ast"
	"go/types"
)

// Refbalance checks that every registry reference taken with
// (*registry.Deployed).Retain is dropped with a matching
// (*registry.Deployed).Release on every path. An unbalanced Retain keeps
// a retired or superseded model version from ever draining — its warmed
// caches stay resident forever and the rollout machinery reports the
// version as still serving.
//
// Unlike polypool, the tracked resource is the *receiver* of the acquire
// call (Retain returns nothing): the engine keys on the receiver path
// (e.g. sess.dep), so a Release on the same receiver along the path —
// including one deferred inside a closure the function hands to a worker
// pool — balances it. A function that intentionally returns with the
// reference held (transferring the obligation to its caller) must be
// annotated //hennlint:transfers-ownership.
var Refbalance = &Analyzer{
	Name: "refbalance",
	Doc:  "registry Deployed.Retain must be balanced by Release on every path",
	Run:  runRefbalance,
}

func runRefbalance(p *Pass) error {
	spec := &pairSpec{
		resultType: func(t types.Type) bool { return namedTypeName(t) == "Deployed" },
		acquireRecv: func(p *Pass, call *ast.CallExpr) (ast.Expr, string, bool) {
			recv, ok := methodCall(p.Info, call, "Deployed", "Retain")
			if !ok {
				return nil, "", false
			}
			return recv, "model reference", true
		},
		release: func(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
			recv, ok := methodCall(p.Info, call, "Deployed", "Release")
			if !ok {
				return nil, false
			}
			return recv, true
		},
	}
	runPairing(p, spec)
	return nil
}
