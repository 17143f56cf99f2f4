package lint

import (
	"go/ast"
	"go/token"
)

// Levelbudget forbids arithmetic directly on a LevelsRequired() call
// result, so the PR 3 class of bug — the serving layer demanding
// LevelsRequired()+1 levels while the pipeline consumes exactly
// LevelsRequired() — is a lint error instead of an e2e discovery. The
// budget is exact by construction; adding or subtracting a margin at a
// call site either wastes a prime in the modulus chain or rejects valid
// ciphertexts at the serving boundary. Derived quantities (chain length =
// budget+1 primes) must go through a named intermediate, which both
// documents the derivation and keeps the boundary comparisons exact.
//
// That each layer kind consumes exactly its share of the budget is a
// property of the evaluator, tested on it (henn's TestLayerLevelShares).
var Levelbudget = &Analyzer{
	Name: "levelbudget",
	Doc:  "no ±k arithmetic on the exact LevelsRequired() budget",
	Run:  runLevelbudget,
}

func runLevelbudget(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if isLevelsRequiredCall(side) {
					p.Reportf(be.Pos(), "arithmetic on LevelsRequired(): the level budget is exact — a ±k margin reintroduces the serving-boundary off-by-one; bind the budget to a named variable and derive from that")
					break
				}
			}
			return true
		})
	}
	return nil
}

func isLevelsRequiredCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "LevelsRequired"
	case *ast.Ident:
		return fun.Name == "LevelsRequired"
	}
	return false
}
