package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The shared whole-program engine. NewProgram builds a CHA-style call
// graph over every package a Run invocation analyzes (the offline
// `go list -deps -export` loader hands us fully type-checked packages,
// so resolution is purely types-based): static calls resolve through
// types.Info.Uses, interface method calls resolve class-hierarchy style
// to every concrete method in the analyzed packages whose receiver
// implements the interface, and method values / function references are
// recorded as Ref edges so analyzers can choose whether "may be called
// later" counts. Call sites carry their lexical context (go, defer,
// inside a non-invoked closure) because the whole-program analyzers
// weigh them differently: a goroutine does not run on its spawner's
// stack, so lockorder must not thread the held-set through it.
//
// On top of the graph, Program offers a cycle-aware bottom-up fixpoint
// (Fixpoint) for per-function effect summaries — recursion simply
// iterates until the summaries stop growing. Analyzers reconstruct
// witness call chains from the steps their summaries record.

// Program is the whole-program view handed to RunProgram analyzers.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	nodes map[*types.Func]*FuncNode
	// concrete named types of the analyzed packages, for CHA interface
	// resolution.
	named []types.Type
	// cache of interface-method → concrete implementations.
	chaCache map[*types.Func][]*types.Func
}

// FuncNode is one declared function or method with a body.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Calls []*CallSite
	// Refs are function values taken without being called at that point
	// (method values, `go s.run` spelled as a bare reference, funcs
	// stored in tables). Over-approximating analyzers may treat them as
	// potential calls; under-approximating ones ignore them.
	Refs []*FuncRef
}

// CallSite is one resolved call expression inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	// Callees lists the possible static targets: exactly one for direct
	// calls, every CHA-compatible concrete method for interface calls,
	// empty for unresolvable dynamic calls (function values).
	Callees []*types.Func
	Go      bool // spawned with `go`: runs on another stack
	Defer   bool // deferred: runs at function exit, same stack
	// InClosure marks calls inside a function literal that is NOT
	// invoked where it is written — whether and when it runs is unknown.
	// Immediately-invoked literals (func(){...}()) splice into their
	// enclosing function and are not marked.
	InClosure bool
}

// FuncRef is a reference to a function or method without a call.
type FuncRef struct {
	Pos token.Pos
	Fn  *types.Func
}

// NewProgram builds the call graph for pkgs.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:     pkgs,
		nodes:    map[*types.Func]*FuncNode{},
		chaCache: map[*types.Func][]*types.Func{},
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
					prog.named = append(prog.named, tn.Type())
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				prog.nodes[fn] = node
			}
		}
	}
	for _, node := range prog.nodes {
		prog.collect(node)
	}
	return prog
}

// Node returns the graph node for fn, or nil when fn has no body in the
// analyzed packages (stdlib, interface methods, external deps).
func (prog *Program) Node(fn *types.Func) *FuncNode { return prog.nodes[fn] }

// Funcs returns every node in a stable (position) order.
func (prog *Program) Funcs() []*FuncNode {
	out := make([]*FuncNode, 0, len(prog.nodes))
	for _, n := range prog.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// collect walks node's body resolving every call and reference.
func (prog *Program) collect(node *FuncNode) {
	info := node.Pkg.Info
	var walk func(n ast.Node, goCtx, deferCtx, closure bool)
	// walkCall records one call site and descends into its parts: an
	// immediately-invoked literal's body splices into the enclosing
	// context (stays closure=false), a method call's receiver expression
	// and every argument keep the current context.
	walkCall := func(call *ast.CallExpr, goCtx, deferCtx, closure bool) {
		prog.addCall(node, info, call, goCtx, deferCtx, closure)
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			walk(fun.Body, goCtx, deferCtx, closure)
		case *ast.SelectorExpr:
			walk(fun.X, goCtx, deferCtx, closure)
		}
		for _, arg := range call.Args {
			walk(arg, goCtx, deferCtx, closure)
		}
	}
	walk = func(n ast.Node, goCtx, deferCtx, closure bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				walkCall(n.Call, true, false, closure)
				return false
			case *ast.DeferStmt:
				walkCall(n.Call, false, true, closure)
				return false
			case *ast.CallExpr:
				walkCall(n, goCtx, deferCtx, closure)
				return false
			case *ast.FuncLit:
				// A literal reached here is not invoked where it is
				// written: whether and when it runs is unknown.
				walk(n.Body, goCtx, deferCtx, true)
				return false
			case *ast.SelectorExpr:
				// A method or function referenced without a call (the
				// call case above never descends into its own Fun).
				if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
					node.Refs = append(node.Refs, &FuncRef{Pos: n.Pos(), Fn: fn})
				}
				walk(n.X, goCtx, deferCtx, closure)
				return false
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					node.Refs = append(node.Refs, &FuncRef{Pos: n.Pos(), Fn: fn})
				}
				return false
			}
			return true
		})
	}
	walk(node.Decl.Body, false, false, false)
}

// addCall resolves and records one call site.
func (prog *Program) addCall(node *FuncNode, info *types.Info, call *ast.CallExpr, goCtx, deferCtx, closure bool) {
	callees, isCall := prog.resolveCall(info, call)
	if !isCall {
		return // conversion or immediately-invoked literal
	}
	node.Calls = append(node.Calls, &CallSite{
		Call: call, Callees: callees, Go: goCtx, Defer: deferCtx, InClosure: closure,
	})
}

// resolveCall returns the possible static targets of a call: exactly one
// for direct calls, every CHA-compatible concrete method for interface
// calls, nil for dynamic calls through function values. isCall is false
// for type conversions and immediately-invoked function literals.
func (prog *Program) resolveCall(info *types.Info, call *ast.CallExpr) (callees []*types.Func, isCall bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}, true
		}
		if _, isType := info.Uses[fun].(*types.TypeName); isType {
			return nil, false // conversion, not a call
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			if _, isType := info.Uses[fun.Sel].(*types.TypeName); isType {
				return nil, false // qualified conversion
			}
			return nil, true
		}
		if isInterfaceMethod(fn) {
			return prog.implementations(fn), true
		}
		return []*types.Func{fn}, true
	case *ast.FuncLit:
		// Immediately invoked: the body splices into the enclosing
		// context; no edge needed.
		return nil, false
	}
	return nil, true
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// implementations resolves an interface method CHA-style: every method
// of the same name on an analyzed concrete type that implements the
// interface.
func (prog *Program) implementations(fn *types.Func) []*types.Func {
	if impls, ok := prog.chaCache[fn]; ok {
		return impls
	}
	iface, _ := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	if iface != nil {
		for _, t := range prog.named {
			var recv types.Type = t
			if !types.Implements(t, iface) {
				pt := types.NewPointer(t)
				if !types.Implements(pt, iface) {
					continue
				}
				recv = pt
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				impls = append(impls, m)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	prog.chaCache[fn] = impls
	return impls
}

// Fixpoint computes a bottom-up summary for every node, iterating until
// no summary changes — recursion and mutual recursion converge because
// update must be monotone (only ever grow its summary). update returns
// whether the node's summary changed this round.
func (prog *Program) Fixpoint(update func(n *FuncNode) bool) {
	for {
		changed := false
		for _, n := range prog.Funcs() {
			if update(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}
