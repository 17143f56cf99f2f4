package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The acquire/release pairing engine under polypool.
//
// It runs the statement walker (flow.go) over each function body
// (declared functions and function literals are analyzed as
// independent scopes). A resource enters the tracked set when an acquire
// call's result is bound to a local identifier; it leaves it when a
// matching release call runs, when a matching release is deferred (defers
// run on every return and on panic, so a deferred release covers the rest
// of the function), or when ownership demonstrably leaves the function —
// stored into a field, slice, map or composite literal, sent on a
// channel, captured by a closure that releases it, or returned by a
// function annotated //hennlint:transfers-ownership.
//
// At every return (explicit or fall-off-the-end) and wherever an
// iteration of a loop body ends, the engine checks the tracked set: a
// resource that is live on the path being checked is a leak. Joins widen disagreeing states to
// "maybe released", which is deliberately not reported — the engine
// under-approximates at merges so it can stay silent on correct code; a
// resource released on only one arm of a branch will still be caught on
// any path that reaches a return while it is provably live.

// transfersOwnership is the directive that lets a function hand an
// acquired resource to its caller via a return value.
const transfersOwnership = "transfers-ownership"

type resState int8

const (
	stLive resState = iota
	stMaybe
	stReleased
)

type resource struct {
	name  string // identifier, for messages
	what  string // noun from the acquire matcher
	state resState
	pos   token.Pos // acquire site
}

// flowState maps resource keys (see exprKey) to their current state.
type flowState map[string]*resource

func (st flowState) clone() flowState {
	out := make(flowState, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}

// merge joins two branch states in place into st.
func (st flowState) merge(other flowState) {
	for k, o := range other {
		cur, ok := st[k]
		if !ok {
			c := *o
			st[k] = &c
			continue
		}
		if cur.state != o.state {
			// live ⊔ released = maybe; anything ⊔ maybe = maybe.
			cur.state = stMaybe
		}
	}
	// Keys only in st keep their state: a resource acquired on one arm
	// stays live into the join (the other arm never knew it).
}

// runPairing applies polypool's acquire, release and isPoolResource to
// every function-shaped body in the package.
func runPairing(p *Pass) error {
	// Same-package functions annotated transfers-ownership also act as
	// acquirers: their callers own the returned resources.
	annotated := map[*types.Func]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, transfersOwnership) {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if !returnsResource(fn) {
				continue
			}
			annotated[fn] = true
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Literals are scopes of their own and cannot carry doc
			// annotations; one that needs to hand resources out should
			// assign them to captured state, which the engine treats as
			// an escape.
			var body *ast.BlockStmt
			var doc *ast.CommentGroup
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body, doc = fn.Body, fn.Doc
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				a := &pairAnalysis{
					pass: p, annotated: annotated,
					fnPos: n.Pos(), fnEnd: n.End(),
					transfers: hasDirective(doc, transfersOwnership),
				}
				flowBody(a, body, flowState{})
			}
			return true
		})
	}
	return nil
}

type pairAnalysis struct {
	pass      *Pass
	annotated map[*types.Func]bool
	fnPos     token.Pos
	fnEnd     token.Pos
	transfers bool // function is annotated transfers-ownership
}

// isAcquire matches direct acquire calls and calls to same-package
// annotated functions.
func (a *pairAnalysis) isAcquire(call *ast.CallExpr) (string, bool) {
	if what, ok := acquire(a.pass, call); ok {
		return what, true
	}
	if fn := calleeFunc(a.pass.Info, call); fn != nil && a.annotated[fn] {
		return "owned result of " + fn.Name(), true
	}
	return "", false
}

// leaf applies one statement with no control flow of its own.
func (a *pairAnalysis) leaf(s ast.Stmt, st flowState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		a.handleBind(s.Lhs, s.Rhs, s.Tok, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				a.handleBind(identsAsExprs(vs.Names), vs.Values, token.DEFINE, st)
			}
		}

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			a.handleCall(call, st, false)
		} else {
			a.expr(s.X, st)
		}

	case *ast.DeferStmt:
		a.handleCall(s.Call, st, true)

	case *ast.GoStmt:
		a.handleCall(s.Call, st, true)

	case *ast.SendStmt:
		// Sending a tracked resource on a channel transfers ownership.
		a.escapeIdents(s.Value, st)
		a.expr(s.Chan, st)
	}
}

// iterationEnd reports resources acquired inside a loop body that are
// still provably live when the iteration ends, whichever way it ends —
// they leak once per iteration and cannot be released after the loop
// (their scope is gone).
func (a *pairAnalysis) iterationEnd(pre, post flowState, body *ast.BlockStmt) {
	for k, r := range post {
		if _, existed := pre[k]; existed || r.state != stLive {
			continue
		}
		// Only flag resources bound to identifiers declared inside the
		// body; anything else already escaped tracking.
		if r.pos >= body.Pos() && r.pos < body.End() {
			a.pass.Reportf(r.pos, "%s %s is acquired in a loop body but not released by the end of the iteration", r.what, r.name)
			r.state = stReleased // one report per resource
		}
	}
}

// exit reports every provably-live resource at a return site (or at
// the end of a function body). A resource referenced by the return
// values is an ownership transfer when the function carries the
// annotation, a diagnostic otherwise.
func (a *pairAnalysis) exit(st flowState, pos token.Pos, results []ast.Expr) {
	returned := map[string]bool{}
	for _, r := range results {
		ast.Inspect(r, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				returned[exprKey(a.pass.Info, id)] = true
			}
			return true
		})
	}
	for k, r := range st {
		if r.state != stLive {
			continue
		}
		if returned[k] {
			if a.transfers {
				r.state = stReleased
				continue
			}
			a.pass.Reportf(pos, "%s %s escapes via return; release it before returning or annotate the function with %s%s",
				r.what, r.name, directivePrefix, transfersOwnership)
			r.state = stReleased
			continue
		}
		a.pass.Reportf(pos, "%s %s (acquired at %s) is not released on this return path",
			r.what, r.name, a.pass.Fset.Position(r.pos))
		r.state = stReleased
	}
}

// handleBind processes acquires bound to identifiers, escapes through
// stores, and release-bearing closures on the right-hand side.
func (a *pairAnalysis) handleBind(lhs, rhs []ast.Expr, tok token.Token, st flowState) {
	// v, w := acquire() — one multi-result acquire call.
	if len(rhs) == 1 && len(lhs) >= 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if what, ok := a.isAcquire(call); ok {
				for _, l := range lhs {
					a.bindAcquire(l, what, call.Pos(), tok, st)
				}
				a.scanCallArgs(call, st)
				return
			}
		}
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok {
				if what, ok := a.isAcquire(call); ok {
					a.bindAcquire(lhs[i], what, call.Pos(), tok, st)
					a.scanCallArgs(call, st)
					continue
				}
			}
			a.storeInto(lhs[i], rhs[i], st)
			a.expr(rhs[i], st)
		}
		return
	}
	for _, r := range rhs {
		a.expr(r, st)
	}
	for i := range lhs {
		a.storeInto(lhs[i], nil, st)
	}
}

// returnsResource reports whether any of fn's results is a pool resource:
// an annotated function only acts as an acquirer if it returns one.
func returnsResource(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isPoolResource(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// bindAcquire starts tracking an acquire result bound to l.
func (a *pairAnalysis) bindAcquire(l ast.Expr, what string, pos token.Pos, tok token.Token, st flowState) {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		// Stored straight into a field, index or map slot: ownership
		// moves to that structure; the engine stops tracking.
		return
	}
	// Only track the results that are resources (skip the error of a
	// (resource, error) acquire).
	if obj := a.pass.Info.ObjectOf(id); obj == nil || !isPoolResource(obj.Type()) {
		return
	}
	if tok == token.ASSIGN {
		// Plain `=` to a variable declared outside this function (a
		// captured or package-level variable) moves ownership out.
		if obj := a.pass.Info.ObjectOf(id); obj != nil && (obj.Pos() < a.fnPos || obj.Pos() >= a.fnEnd) {
			return
		}
	}
	key := exprKey(a.pass.Info, id)
	if prev, ok := st[key]; ok && prev.state == stLive {
		a.pass.Reportf(pos, "%s %s is reassigned while the previous value (acquired at %s) is unreleased",
			what, id.Name, a.pass.Fset.Position(prev.pos))
	}
	st[key] = &resource{name: id.Name, what: what, state: stLive, pos: pos}
}

// storeInto handles the left side of an assignment: writing a tracked
// resource into anything but a plain local identifier is an escape, and
// overwriting a live tracked identifier is a leak of the old value.
func (a *pairAnalysis) storeInto(l, r ast.Expr, st flowState) {
	if r != nil {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok {
			key := exprKey(a.pass.Info, id)
			if res, tracked := st[key]; tracked && res.state == stLive {
				if _, lhsIdent := ast.Unparen(l).(*ast.Ident); !lhsIdent {
					res.state = stReleased // escaped into a structure
				}
			}
		}
	}
	if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
		key := exprKey(a.pass.Info, id)
		if res, tracked := st[key]; tracked && res.state == stLive && r != nil {
			// Only report when the overwrite is a fresh value, not a
			// self-update (v = append-style rebinding of same resource).
			if rid, ok := ast.Unparen(r).(*ast.Ident); !ok || exprKey(a.pass.Info, rid) != key {
				a.pass.Reportf(l.Pos(), "%s %s (acquired at %s) is overwritten while unreleased",
					res.what, res.name, a.pass.Fset.Position(res.pos))
				res.state = stReleased
			}
		}
	}
}

// handleCall processes a statement-level (or deferred) call: a release
// updates state, a bare acquire is an immediate leak, and anything else
// is scanned for escapes and release-bearing closures.
func (a *pairAnalysis) handleCall(call *ast.CallExpr, st flowState, deferred bool) {
	if released, ok := release(a.pass, call); ok {
		key := exprKey(a.pass.Info, released)
		if res, tracked := st[key]; tracked {
			res.state = stReleased
		}
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... release(v) ... }() and friends.
		a.scanClosure(fl, st)
		a.scanCallArgs(call, st)
		return
	}
	if what, ok := a.isAcquire(call); ok && !deferred {
		a.pass.Reportf(call.Pos(), "result of this call (%s) is discarded and can never be released", what)
		return
	}
	a.scanCallArgs(call, st)
}

func (a *pairAnalysis) scanCallArgs(call *ast.CallExpr, st flowState) {
	for _, arg := range call.Args {
		a.expr(arg, st)
	}
}

// expr looks inside an expression for ownership transfers the flow
// walk would otherwise miss: tracked resources placed in composite
// literals, addresses of tracked resources, and closures that release a
// tracked resource (the closure now owns the release obligation —
// passing it to a worker pool or deferring it are the repo's idioms).
// Plain call arguments are borrows and do not untrack.
func (a *pairAnalysis) expr(e ast.Expr, st flowState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.scanClosure(n, st)
			return false
		case *ast.CompositeLit:
			a.escapeIdents(n, st)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				a.escapeIdents(n.X, st)
			}
		}
		return true
	})
}

// escapeIdents marks a tracked identifier appearing directly in e as
// ownership-transferred.
func (a *pairAnalysis) escapeIdents(e ast.Expr, st flowState) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if res, tracked := st[exprKey(a.pass.Info, id)]; tracked && res.state == stLive {
			res.state = stReleased
		}
		return
	}
	// Nested composites (e.g. a slice literal of structs).
	if cl, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			a.escapeIdents(elt, st)
		}
	}
}

// scanClosure marks every outer tracked resource the closure releases as
// released: once the closure exists, it owns those release obligations
// (the repo passes such closures to worker pools or defers them).
func (a *pairAnalysis) scanClosure(fl *ast.FuncLit, st flowState) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if released, ok := release(a.pass, call); ok {
			if res, tracked := st[exprKey(a.pass.Info, released)]; tracked {
				res.state = stReleased
			}
		}
		return true
	})
}

func identsAsExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}
