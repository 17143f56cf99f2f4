// Package lint implements hennlint, a suite of custom static analyzers
// that mechanically enforce the correctness contracts of this serving
// stack which the compiler cannot see:
//
//   - polypool: every pooled polynomial or scratch buffer drawn from an
//     internal/ring pool (GetPoly, GetPolyRaw, GetScratch) or hoisted
//     decomposition must be returned (PutPoly, PutScratch, Release) on
//     every path, or explicitly handed to the caller via a
//     //hennlint:transfers-ownership annotation.
//   - cryptorand: math/rand must not leak into the crypto packages
//     (internal/ckks, internal/ring) outside tests.
//   - ctcompare: secrets and tokens must be compared in constant time
//     (crypto/subtle), never with == or bytes.Equal.
//   - wiremagic: every UnmarshalBinary must lead with the internal/wire
//     Reader's Magic check and finish with its Done (the Reader itself
//     bounds every length in between).
//   - levelbudget: no caller may size or gate with LevelsRequired() ± k
//     arithmetic — the budget is exact by construction.
//   - errsink: wire-decode errors must not be discarded — an ignored
//     error from Reader.Done, an (Un)MarshalBinary-family method or an
//     Encoder.Encode / Decoder.Decode is a finding unless audited with
//     //hennlint:err-ok.
//
// One of the six analyzers needs flow: the pairing engine (pairing.go)
// runs polypool's acquire/release pairs over the flow walker (flow.go),
// which interprets a function body statement by statement. The other five
// are single syntactic passes.
// Mutex discipline, lock order, secret sinks and metric-label bounds are
// held outside this package: by `go test -race`, a registry test that the
// catalog never waits on a stack's lock, redacting methods on the secret
// types, and a series cap in internal/telemetry.
//
// The suite runs as `make lint` (via cmd/hennlint) and is enforced in CI.
// It is built directly on go/ast and go/types — the module vendors no
// dependencies, so the go/analysis framework is intentionally not used;
// lint.Analyzer mirrors its shape closely enough that porting later is
// mechanical.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check; Run sees one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full hennlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Polypool, Cryptorand, Ctcompare, Wiremagic, Levelbudget, Errsink}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path (or test-harness package name)
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies the analyzers to every package and returns the combined
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message // two findings at one site: no map order in the output
	})
	return diags, nil
}

// directivePrefix introduces hennlint annotations. Annotations are
// directive comments (no space after //, invisible to go doc), e.g.
// //hennlint:transfers-ownership — optionally followed by a rationale on
// the same line.
const directivePrefix = "//hennlint:"

// hasDirective reports whether the comment group carries the named
// hennlint annotation.
func hasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if isDirective(c.Text, name) {
			return true
		}
	}
	return false
}

// isDirective reports whether a comment's text is the named annotation,
// bare or followed by a rationale.
func isDirective(text, name string) bool {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	return ok && (rest == name || strings.HasPrefix(rest, name+" "))
}

// directiveLines returns the lines carrying the named directive in f,
// plus the line directly below each — the audited-escape convention: the
// directive suppresses a finding on its own line or, as a standalone
// comment, on the line it annotates below it.
func directiveLines(fset *token.FileSet, f *ast.File, name string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isDirective(c.Text, name) {
				line := fset.Position(c.Pos()).Line
				lines[line] = true
				lines[line+1] = true
			}
		}
	}
	return lines
}

// calleeFunc resolves the *types.Func a call invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// methodCall matches a call of the form expr.method(...) where the
// method's receiver is the named type typeName (possibly behind a
// pointer), in any package — matching by type name keeps analyzer test
// fixtures self-contained. It returns the receiver expression.
func methodCall(info *types.Info, call *ast.CallExpr, typeName, method string) (recv ast.Expr, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK || sel.Sel.Name != method {
		return nil, false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, false
	}
	sig, sigOK := fn.Type().(*types.Signature)
	if !sigOK || sig.Recv() == nil {
		return nil, false
	}
	if namedTypeName(sig.Recv().Type()) != typeName {
		return nil, false
	}
	return sel.X, true
}

// namedTypeName returns the name of t's named type, looking through
// pointers; "" if t is not named.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// exprKey returns a stable key identifying the resource an expression
// names: the defining object for plain identifiers (robust under
// shadowing), the printed selector path otherwise ("sess.dep").
func exprKey(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return fmt.Sprintf("obj:%p", obj)
		}
		return "name:" + id.Name
	}
	return "expr:" + types.ExprString(e)
}
