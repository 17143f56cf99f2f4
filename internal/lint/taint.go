package lint

import (
	"go/ast"
	"go/types"
)

// The local taint pass shared by secretflow and obsdiscipline's label
// check. Within one function body, taint starts at the expressions the
// client's source predicate names, follows local assignment and range
// chains to a fixpoint (closure bodies included: a captured value keeps
// its taint), and passes through every expression form that only
// reshapes a value — selection, indexing, slicing, dereference, unary and
// binary operators, type assertion, composite literals and conversions.
// What a call's result carries is the client's rule; absent one, a call
// cuts the flow. A call the client's sink table names is reported once
// per tainted operand, unless its line is audited away.

type taintSpec struct {
	// source reports whether e is tainted by what it is (its type, its
	// name, the field it selects), before any propagation.
	source func(p *Pass, e ast.Expr) bool
	// call reports whether the result of a call (not a conversion) is
	// tainted; nil means never.
	call func(t *taintPass, call *ast.CallExpr) bool
	// sink returns the operands of call that must stay untainted and a
	// name for the sink, or no operands when call is not one.
	sink func(p *Pass, call *ast.CallExpr) (operands []ast.Expr, name string)
	// report is the finding's format: the operand as written, the sink's
	// name, directivePrefix.
	report string
}

type taintPass struct {
	p       *Pass
	spec    *taintSpec
	tainted map[types.Object]bool
}

// runTaint checks one function body; okLines are the audited lines of
// its file (directiveLines).
func runTaint(p *Pass, spec *taintSpec, body *ast.BlockStmt, okLines map[int]bool) {
	t := &taintPass{p: p, spec: spec, tainted: map[types.Object]bool{}}
	for t.propagate(body) {
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || okLines[p.Fset.Position(call.Pos()).Line] {
			return true
		}
		operands, sink := spec.sink(p, call)
		for _, o := range operands {
			if t.expr(o) {
				p.Reportf(call.Pos(), spec.report, types.ExprString(o), sink, directivePrefix)
			}
		}
		return true
	})
}

// propagate makes one pass over the body's bindings and reports whether
// any identifier became tainted, so chains like sk := kg.GenSecretKey();
// q := sk.Q; raw := q.Coeffs converge however they are ordered.
func (t *taintPass) propagate(body *ast.BlockStmt) (grew bool) {
	bind := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" || !t.expr(rhs) {
			return
		}
		if obj := t.p.Info.ObjectOf(id); obj != nil && !t.tainted[obj] {
			t.tainted[obj] = true
			grew = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		case *ast.RangeStmt:
			// for k, v := range tainted: both carry it.
			if n.Key != nil {
				bind(n.Key, n.X)
			}
			if n.Value != nil {
				bind(n.Value, n.X)
			}
		}
		return true
	})
	return grew
}

// expr reports whether e carries taint.
func (t *taintPass) expr(e ast.Expr) bool {
	e = ast.Unparen(e)
	if e == nil {
		return false
	}
	if t.spec.source(t.p, e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		return t.tainted[t.p.Info.ObjectOf(e)]
	case *ast.SelectorExpr:
		return t.expr(e.X)
	case *ast.IndexExpr:
		return t.expr(e.X)
	case *ast.SliceExpr:
		return t.expr(e.X)
	case *ast.StarExpr:
		return t.expr(e.X)
	case *ast.UnaryExpr:
		return t.expr(e.X)
	case *ast.TypeAssertExpr:
		return t.expr(e.X)
	case *ast.BinaryExpr:
		// Seed mixing (seed ^ salt) and concatenation keep the taint of
		// either side.
		return t.expr(e.X) || t.expr(e.Y)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if t.expr(elt) {
				return true
			}
		}
	case *ast.CallExpr:
		// Conversions pass through ([]byte(raw), string(b)).
		if tv, ok := t.p.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return t.expr(e.Args[0])
		}
		return t.spec.call != nil && t.spec.call(t, e)
	}
	return false
}
