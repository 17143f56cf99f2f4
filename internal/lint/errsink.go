package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errsink finds discarded wire-decode errors. Every wire format decodes
// through an internal/wire Reader whose reads cannot fail one by one — the
// failure is sticky and surfaces exactly once, from Reader.Done inside the
// decoder and from the (Un)MarshalBinary method to its caller. Dropping
// either turns a truncated or hostile payload into a zero value that every
// later check trusts. The sink set is therefore small: Reader.Done, the
// (Un)MarshalBinary/Gob method family, and Encoder.Encode / Decoder.Decode.
// A call whose error result is ignored — `_ =`, a blank in the tuple
// position, a bare expression statement, or a defer/go that drops the
// results — is reported unless the line (or the line above) carries
// //hennlint:err-ok with a justification.
var Errsink = &Analyzer{
	Name: "errsink",
	Doc:  "wire-decode errors must not be silently discarded",
	Run:  runErrsink,
}

// errsinkMethodFamily are method names that serialize or deserialize
// their receiver over the wire.
var errsinkMethodFamily = map[string]bool{
	"UnmarshalBinary": true,
	"MarshalBinary":   true,
	"AppendBinary":    true,
	"GobEncode":       true,
	"GobDecode":       true,
}

func runErrsink(p *Pass) error {
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ok := directiveLines(p.Fset, f, "err-ok")
		report := func(call *ast.CallExpr, fn *types.Func, how string) {
			if ok[p.Fset.Position(call.Pos()).Line] {
				return
			}
			p.Reportf(call.Pos(), "error from %s is %s; wire-decode errors must be handled (audit with %serr-ok if discarding is intended)",
				wireCallName(fn), how, directivePrefix)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, isCall := ast.Unparen(n.X).(*ast.CallExpr); isCall {
					if fn := wireSink(p.Info, call); fn != nil {
						report(call, fn, "discarded (results unused)")
					}
				}
			case *ast.DeferStmt:
				if fn := wireSink(p.Info, n.Call); fn != nil {
					report(n.Call, fn, "discarded by defer")
				}
			case *ast.GoStmt:
				if fn := wireSink(p.Info, n.Call); fn != nil {
					report(n.Call, fn, "discarded by go statement")
				}
			case *ast.AssignStmt:
				checkErrsinkAssign(p.Info, n.Lhs, n.Rhs, report)
			case *ast.DeclStmt:
				if gd, isGen := n.Decl.(*ast.GenDecl); isGen {
					for _, spec := range gd.Specs {
						if vs, isVal := spec.(*ast.ValueSpec); isVal && len(vs.Values) > 0 {
							checkErrsinkAssign(p.Info, identsAsExprs(vs.Names), vs.Values, report)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkErrsinkAssign reports wire calls whose error-typed results land
// in blank identifiers.
func checkErrsinkAssign(info *types.Info, lhs, rhs []ast.Expr, report func(*ast.CallExpr, *types.Func, string)) {
	// v, _ := call() — one multi-result call.
	if len(rhs) == 1 && len(lhs) > 1 {
		call, isCall := ast.Unparen(rhs[0]).(*ast.CallExpr)
		if !isCall {
			return
		}
		fn := wireSink(info, call)
		if fn == nil {
			return
		}
		sig, isSig := fn.Type().(*types.Signature)
		if !isSig || sig.Results().Len() != len(lhs) {
			return
		}
		for i := 0; i < len(lhs); i++ {
			if isErrorType(sig.Results().At(i).Type()) && isBlank(lhs[i]) {
				report(call, fn, "assigned to _")
				return
			}
		}
		return
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i := range rhs {
		call, isCall := ast.Unparen(rhs[i]).(*ast.CallExpr)
		if !isCall || !isBlank(lhs[i]) {
			continue
		}
		fn := wireSink(info, call)
		if fn == nil {
			continue
		}
		sig, isSig := fn.Type().(*types.Signature)
		if isSig && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
			report(call, fn, "assigned to _")
		}
	}
}

// wireSink returns the function a call invokes when it belongs to the sink
// set — an error-returning method of the wire method family,
// Encoder.Encode / Decoder.Decode, or Reader.Done — and nil otherwise.
func wireSink(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || !hasErrorResult(fn) {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	recv := namedTypeName(sig.Recv().Type())
	if errsinkMethodFamily[fn.Name()] ||
		fn.Name() == "Encode" && recv == "Encoder" ||
		fn.Name() == "Decode" && recv == "Decoder" ||
		fn.Name() == "Done" && recv == "Reader" {
		return fn
	}
	return nil
}

// wireCallName renders Type.Method for messages.
func wireCallName(fn *types.Func) string {
	return namedTypeName(fn.Type().(*types.Signature).Recv().Type()) + "." + fn.Name()
}

func hasErrorResult(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
