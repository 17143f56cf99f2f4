package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Obsdiscipline enforces the telemetry plane's three usage contracts.
//
// Lifecycles: a stage mark obtained from Trace.StageStart must reach a
// Trace.StageEnd on every path, and a span obtained from StartSpan must
// be ended with Span.End — both run on the PR 7 pairing engine, so
// deferred ends, ownership-transferring stores and the
// //hennlint:transfers-ownership annotation all behave exactly like the
// pool and refcount analyzers. A dropped StageEnd is not just a missing
// datapoint: the stage histogram silently under-reports the exact code
// path that was interesting enough to instrument.
//
// Label cardinality: a taint pass flags unbounded values — request
// paths and query strings (URL fields), mux path values and form/header
// inputs, trace ids (Trace.ID, NewTraceID), hex digests — flowing into
// CounterVec/HistogramVec With label arguments, where each distinct
// value mints a new series and an attacker-controlled input becomes an
// unbounded-memory bug. Taint follows assignment chains, string
// concatenation and the fmt/strings/strconv shaping helpers;
// //hennlint:label-ok on the sink line audits a deliberate site.
//
// Read paths: functions annotated //hennlint:read-path (stats and
// scrape handlers) must never reach the series-creating With — a scrape
// must observe, not allocate; Find is the read-side accessor. The check
// is transitive over the shared call graph and reports the call chain.
var Obsdiscipline = &Analyzer{
	Name:       "obsdiscipline",
	Doc:        "telemetry lifecycles must pair, metric labels stay bounded, read paths never create series",
	Run:        runObsdiscipline,
	RunProgram: runObsdisciplineProgram,
}

// spanPairSpec tracks StartSpan results to their Span.End.
var spanPairSpec = &pairSpec{
	acquire: func(p *Pass, call *ast.CallExpr) (string, bool) {
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Name() != "StartSpan" {
			return "", false
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() >= 1 &&
			namedTypeName(sig.Results().At(0).Type()) == "Span" {
			return "trace span", true
		}
		return "", false
	},
	release: func(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
		return methodCall(p.Info, call, "Span", "End")
	},
	annotation: "transfers-ownership",
	resultType: func(t types.Type) bool { return namedTypeName(t) == "Span" },
}

// stagePairSpec tracks Trace.StageStart marks to their Trace.StageEnd.
var stagePairSpec = &pairSpec{
	acquire: func(p *Pass, call *ast.CallExpr) (string, bool) {
		if _, ok := methodCall(p.Info, call, "Trace", "StageStart"); ok {
			return "stage mark", true
		}
		return "", false
	},
	release: func(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
		if _, ok := methodCall(p.Info, call, "Trace", "StageEnd"); ok && len(call.Args) >= 2 {
			return call.Args[1], true
		}
		return nil, false
	},
	annotation: "transfers-ownership",
	resultType: func(t types.Type) bool { return namedTypeName(t) == "Time" },
}

func runObsdiscipline(p *Pass) error {
	runPairing(p, spanPairSpec)
	runPairing(p, stagePairSpec)
	for _, f := range p.Files {
		okLines := directiveLines(p.Fset, f, "label-ok")
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				runTaint(p, labelTaintSpec, fd.Body, okLines)
			}
		}
	}
	return nil
}

// labelTaintSpec is the unbounded-label taint pass: cardinality sources,
// and the series-creating With as its only sink.
var labelTaintSpec = &taintSpec{
	source: func(p *Pass, e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || !urlUnboundedFields[sel.Sel.Name] {
			return false
		}
		owner := namedTypeName(p.Info.TypeOf(sel.X))
		return owner == "URL" || owner == "Request"
	},
	call: labelTaintedCall,
	sink: func(p *Pass, call *ast.CallExpr) ([]ast.Expr, string) {
		if fn, recv := vecMethod(p.Info, call); fn != nil && fn.Name() == "With" {
			return call.Args, recv
		}
		return nil, ""
	},
	report: "unbounded value %s becomes a %s.With label: every distinct value mints a new series (bound it, or audit with %slabel-ok)",
}

// urlUnboundedFields are the URL parts whose value space is the client's
// to choose.
var urlUnboundedFields = map[string]bool{
	"Path": true, "RawPath": true, "RawQuery": true, "Opaque": true, "RequestURI": true,
}

// labelTaintedCall classifies call results: unbounded sources are
// tainted outright, string-shaping helpers propagate their arguments'
// taint, and every other call yields a fresh (untainted) value.
func labelTaintedCall(t *taintPass, call *ast.CallExpr) bool {
	fn := calleeFunc(t.p.Info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := namedTypeName(sig.Recv().Type())
		switch fn.Name() {
		case "PathValue", "FormValue", "PostFormValue":
			return true // mux wildcards and form fields are client input
		case "Get":
			if recv == "Header" || recv == "Values" {
				return true
			}
		case "ID":
			if recv == "Trace" || recv == "Span" {
				return true // trace ids are unique per request
			}
		case "String":
			if recv == "URL" {
				return true
			}
			return t.expr(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
		}
		return false
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch pkgPath {
	case "fmt", "strings", "strconv", "path", "path/filepath":
		// Shaping helpers: Sprintf, ToLower, Itoa... the result is as
		// bounded as the inputs.
		for _, arg := range call.Args {
			if t.expr(arg) {
				return true
			}
		}
		return false
	case "encoding/hex", "encoding/base64":
		return true // digest/id rendering: unbounded by construction
	}
	return fn.Name() == "NewTraceID"
}

// vecMethod matches a method call on CounterVec/HistogramVec and
// returns the callee and receiver type name.
func vecMethod(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	recv := namedTypeName(sig.Recv().Type())
	if recv != "CounterVec" && recv != "HistogramVec" {
		return nil, ""
	}
	return fn, recv
}

// runObsdisciplineProgram is the With-on-read-path check: no function
// annotated //hennlint:read-path may transitively reach a vec With.
func runObsdisciplineProgram(pp *ProgramPass) error {
	prog := pp.Prog
	// withStep records how a function comes to call With: directly at
	// pos, or through callee via at pos.
	type withStep struct {
		pos  token.Pos
		recv string
		via  *types.Func
	}
	reaches := map[*types.Func]*withStep{}
	prog.Fixpoint(func(n *FuncNode) bool {
		if reaches[n.Fn] != nil {
			return false
		}
		for _, site := range n.Calls {
			if site.Go || site.InClosure {
				continue
			}
			if fn, recv := vecMethod(n.Pkg.Info, site.Call); fn != nil && fn.Name() == "With" {
				reaches[n.Fn] = &withStep{pos: site.Call.Pos(), recv: recv}
				return true
			}
			for _, callee := range site.Callees {
				if s := reaches[callee]; s != nil {
					reaches[n.Fn] = &withStep{pos: site.Call.Pos(), recv: s.recv, via: callee}
					return true
				}
			}
		}
		return false
	})
	for _, n := range prog.Funcs() {
		if !hasDirective(n.Decl.Doc, "read-path") {
			continue
		}
		s := reaches[n.Fn]
		if s == nil {
			continue
		}
		chain := []string{funcDisplayName(n.Decl)}
		seen := map[*types.Func]bool{}
		for via := s.via; via != nil && !seen[via]; {
			seen[via] = true
			chain = append(chain, via.Name())
			next := reaches[via]
			if next == nil {
				break
			}
			via = next.via
		}
		pp.Reportf(s.pos, "read-path function %s reaches %s.With (call path %s): a scrape or stats read must not create series; use Find",
			chain[0], s.recv, strings.Join(chain, " -> "))
	}
	return nil
}
