// Package lint implements hennlint, a suite of custom static analyzers
// that mechanically enforce the correctness contracts of this serving
// stack which the compiler cannot see:
//
//   - polypool: every pooled polynomial or scratch buffer drawn from an
//     internal/ring pool (GetPoly, GetPolyRaw, GetScratch) or hoisted
//     decomposition must be returned (PutPoly, PutScratch, Release) on
//     every path, or explicitly handed to the caller via a
//     //hennlint:transfers-ownership annotation.
//   - refbalance: registry Deployed.Retain must be balanced by a
//     Deployed.Release on every path, so retired models actually drain.
//   - cryptorand: math/rand must not leak into the crypto packages
//     (internal/ckks, internal/ring) outside tests, unless a file
//     carries a //hennlint:deterministic-sampling annotation explaining
//     why deterministic sampling is intended.
//   - ctcompare: secrets and tokens must be compared in constant time
//     (crypto/subtle), never with == or bytes.Equal.
//   - wiremagic: every UnmarshalBinary must lead with the internal/wire
//     Reader's Magic check and finish with its Done (the Reader itself
//     bounds every length in between).
//   - lockguard: struct fields annotated `// guarded by mu` (or
//     //hennlint:guarded-by(mu)) may only be read or written while that
//     mutex is held, tracked flow-sensitively through Lock/Unlock/RLock/
//     RUnlock and deferred unlocks; writes need the exclusive lock.
//   - secretflow: secret material (ckks.SecretKey, key generators,
//     samplers, crypto seeds) must never reach a serialization, logging
//     or network sink, unless the sink is audited with
//     //hennlint:secret-sink-ok.
//   - levelbudget: no caller may size or gate with LevelsRequired() ± k
//     arithmetic — the budget is exact by construction.
//   - lockorder: whole-program deadlock detection — every
//     acquires-while-holding pair (computed transitively over the shared
//     call graph) feeds a global lock-order graph which must stay
//     acyclic; //hennlint:lock-order(a<b) pins the canonical order and
//     //hennlint:lock-order-ok audits a deliberate site away.
//   - obsdiscipline: telemetry discipline — StageStart/StageEnd marks
//     and trace spans must pair on every path, unbounded values
//     (request paths, trace ids, user input) must not become metric
//     label values, and functions annotated //hennlint:read-path
//     (scrape/stats handlers) must never reach the series-creating
//     With, only Find.
//   - errsink: wire-decode errors must not be discarded — an ignored
//     error from Reader.Done, an (Un)MarshalBinary-family method or an
//     Encoder.Encode / Decoder.Decode is a finding unless audited with
//     //hennlint:err-ok.
//
// Four engines sit under the eleven analyzers, each written once. The
// flow walker (flow.go) interprets a function body statement by
// statement over a client's state and join; the pairing engine
// (pairing.go: polypool, refbalance, obsdiscipline's span and stage
// lifecycles), lockguard and lockorder's held-set walk are its clients.
// The taint pass (taint.go) follows local assignment chains from a
// client's sources to its sinks: secretflow and obsdiscipline's label
// check. The call graph (callgraph.go) carries the whole-program
// summaries of lockorder and obsdiscipline's read-path check. The other
// analyzers (cryptorand, ctcompare, wiremagic, levelbudget, errsink) are
// single syntactic passes with no engine.
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

// Analyzer is one named invariant check. Run sees one package at a time;
// RunProgram (either may be nil, at least one must be set) sees every
// analyzed package at once through the shared call-graph engine
// (callgraph.go) — the whole-program analyzers (lockorder,
// obsdiscipline's read-path check) live there.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) error
	RunProgram func(*ProgramPass) error
}

// All returns the full hennlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Polypool, Refbalance, Cryptorand, Ctcompare, Wiremagic, Lockguard, Secretflow, Levelbudget, Lockorder, Obsdiscipline, Errsink}
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

// ProgramPass carries one analyzer's whole-program view: every analyzed
// package plus the shared call graph.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to every package and returns the combined
// diagnostics sorted by position. Per-package Run hooks see each package
// in turn; RunProgram hooks run once over the shared call graph of the
// whole package set.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
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
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		pp := &ProgramPass{Analyzer: a, Prog: prog, report: report}
		if err := a.RunProgram(pp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
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

// directiveArg extracts the parenthesized argument of an annotation of
// the form //hennlint:name(arg), e.g. //hennlint:guarded-by(mu). It
// returns ok=false when the comment group carries no such annotation.
func directiveArg(cg *ast.CommentGroup, name string) (arg string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		rest, found := strings.CutPrefix(c.Text, directivePrefix)
		if !found || !strings.HasPrefix(rest, name+"(") {
			continue
		}
		rest = rest[len(name)+1:]
		if i := strings.IndexByte(rest, ')'); i >= 0 {
			return strings.TrimSpace(rest[:i]), true
		}
	}
	return "", false
}

// fileHasDirective reports whether any comment in the file carries the
// named annotation. File-level annotations (cryptorand's
// deterministic-sampling) may sit anywhere in the file, conventionally
// next to the import they justify.
func fileHasDirective(f *ast.File, name string) bool {
	for _, cg := range f.Comments {
		if hasDirective(cg, name) {
			return true
		}
	}
	return false
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
