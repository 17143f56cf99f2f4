package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// Secretflow is a taint analysis that proves key material never leaves
// the process. Sources are values of the secret-bearing types —
// SecretKey, KeyGenerator, Sampler (matched by type name, like the rest
// of the suite, so fixtures stay self-contained) — plus integer
// variables with seed-like names inside the crypto packages (ckks,
// ring), where a seed fully determines the secret key. Taint propagates
// through selections, indexing, dereference, composite literals,
// conversions, arithmetic (seed mixing) and local assignment chains; it
// deliberately stops at ordinary call boundaries, so a Decryptor's
// *output* — which callers legitimately print — is not tainted by the
// secret key the Decryptor holds.
//
// Sinks are the ways bytes leave the process or land somewhere
// inspectable: fmt/log/slog formatting, MarshalBinary-family methods,
// encoding/json//gob/binary serialization, writes to an
// http.ResponseWriter, telemetry span attributes (Span.SetAttr,
// Trace.AddSpan — traces are served back at /v1/traces) and metric
// label values (CounterVec/HistogramVec With and Find — labels are
// rendered at /metrics). A sink call reached by a tainted value is
// reported unless the line (or the line above it) carries
// //hennlint:secret-sink-ok, the audited escape hatch.
var Secretflow = &Analyzer{
	Name: "secretflow",
	Doc:  "secret key material must never reach serialization, logging or network sinks",
	Run:  runSecretflow,
}

// secretTypeNames are the named types whose values are secret material
// wherever they appear.
var secretTypeNames = map[string]bool{
	"SecretKey":    true,
	"KeyGenerator": true,
	"Sampler":      true,
}

// marshalSinkMethods serialize their receiver (sk.MarshalBinary()).
var marshalSinkMethods = map[string]bool{
	"MarshalBinary": true,
	"MarshalText":   true,
	"MarshalJSON":   true,
	"AppendBinary":  true,
	"GobEncode":     true,
}

// argSinkMethods send their arguments out of the process, by receiver
// type name and method.
var argSinkMethods = map[string]bool{
	"Encoder.Encode":             true, // gob/json encoders
	"ResponseWriter.Write":       true, // a network response
	"ResponseWriter.WriteString": true,
	// Telemetry attributes land in trace snapshots served at /v1/traces,
	// and metric label values render at /metrics — both inspectable over
	// the network.
	"Span.SetAttr":      true,
	"Trace.AddSpan":     true,
	"CounterVec.With":   true,
	"CounterVec.Find":   true,
	"HistogramVec.With": true,
	"HistogramVec.Find": true,
}

func runSecretflow(p *Pass) error {
	base := path.Base(p.Path)
	seedScoped := base == "ckks" || base == "ring"
	spec := &taintSpec{
		// A value of a secret-bearing type is secret wherever it appears,
		// and inside the crypto packages so is a seed-named integer (a
		// seed fully determines the secret key). There is no call rule:
		// a function's result is a fresh value — decryption outputs are
		// public by design.
		source: func(p *Pass, e ast.Expr) bool {
			if secretType(p.Info.TypeOf(e)) {
				return true
			}
			id, ok := e.(*ast.Ident)
			if !ok || !seedScoped || !seedName(id.Name) {
				return false
			}
			v, ok := p.Info.ObjectOf(id).(*types.Var)
			return ok && isIntegerVar(v)
		},
		sink:   secretSink,
		report: "secret material %s reaches sink %s; key material must never leave the process (audit with %ssecret-sink-ok if intended)",
	}
	for _, f := range p.Files {
		okLines := directiveLines(p.Fset, f, "secret-sink-ok")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasDirective(fd.Doc, "secret-sink-ok") {
				continue
			}
			runTaint(p, spec, fd.Body, okLines)
		}
	}
	return nil
}

// secretType reports whether t is (or wraps, through pointers, slices,
// arrays and maps) one of the secret-bearing named types.
func secretType(t types.Type) bool {
	for i := 0; i < 8 && t != nil; i++ {
		if secretTypeNames[namedTypeName(t)] {
			return true
		}
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			t = u.Underlying()
		default:
			return false
		}
	}
	return false
}

func seedName(name string) bool {
	return name == "seed" || strings.HasSuffix(name, "Seed") || strings.HasSuffix(name, "seed")
}

func isIntegerVar(v *types.Var) bool {
	b, ok := v.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// secretSink names the operands of call that leave the process, if it is
// one of the ways bytes do.
func secretSink(p *Pass, call *ast.CallExpr) ([]ast.Expr, string) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil, ""
	}
	if fn.Pkg() != nil {
		switch pkgPath := fn.Pkg().Path(); pkgPath {
		case "fmt", "log", "log/slog",
			"encoding/json", "encoding/gob", "encoding/binary", "encoding/base64", "encoding/hex":
			// Every formatting/printing argument is a sink; %p-style
			// laundering is still a leak of pointer identity, so no verb
			// analysis — any tainted argument reports.
			return call.Args, pkgPath + "." + fn.Name()
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sig == nil || sig.Recv() == nil || !ok {
		return nil, ""
	}
	if marshalSinkMethods[fn.Name()] {
		return []ast.Expr{selExpr.X}, fn.Name()
	}
	if sink := namedTypeName(sig.Recv().Type()) + "." + fn.Name(); argSinkMethods[sink] {
		return call.Args, sink
	}
	return nil, ""
}
