package lint

import (
	"go/ast"
	"go/types"
)

// Wiremagic pins the two ends of every wire decoder. UnmarshalBinary
// methods decode through an internal/wire Reader, which bounds the middle
// by construction — Count is the only source of a length, and a slice read
// refuses to outrun the payload — but cannot see how a decoder starts or
// finishes. So, in every UnmarshalBinary body:
//
//  1. the first Reader call must be Magic: a mis-routed or corrupted
//     payload fails at the front door, not deep inside a length-prefixed
//     structure; and
//  2. the Reader's Done must be called: it is where a sticky read error
//     surfaces, and where trailing bytes become an error instead of a
//     payload two decoders disagree about.
//
// The Reader is matched by type name, so fixtures stay self-contained.
var Wiremagic = &Analyzer{
	Name: "wiremagic",
	Doc:  "UnmarshalBinary must lead with the wire Reader's Magic check and finish with its Done",
	Run:  runWiremagic,
}

func runWiremagic(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != "UnmarshalBinary" {
				continue
			}
			first, done := "", false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, isCall := n.(*ast.CallExpr); isCall {
					if method := readerMethod(p.Info, call); method != "" {
						if first == "" {
							first = method
						}
						done = done || method == "Done"
					}
				}
				return true
			})
			if first != "Magic" {
				p.Reportf(fd.Name.Pos(), "UnmarshalBinary does not lead with a Reader.Magic check; every wire format must reject mis-routed payloads up front")
			}
			if !done {
				p.Reportf(fd.Name.Pos(), "UnmarshalBinary never calls Reader.Done; read errors and trailing bytes would pass silently")
			}
		}
	}
	return nil
}

// readerMethod returns the method name when call invokes a method of a
// type named Reader, "" otherwise.
func readerMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || namedTypeName(sig.Recv().Type()) != "Reader" {
		return ""
	}
	return fn.Name()
}
