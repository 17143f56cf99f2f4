package lint

import (
	"path"
	"strconv"
	"strings"
)

// Cryptorand forbids math/rand (and math/rand/v2) imports in the
// non-test files of the crypto packages — any package whose import path
// ends in "ckks" or "ring". Sampling secrets from a seedable,
// non-cryptographic generator is the kind of mistake that survives every
// functional test. There is no escape: reproducible sampling draws from a
// seeded ring.KeyStream (AES-256-CTR).
var Cryptorand = &Analyzer{
	Name: "cryptorand",
	Doc:  "math/rand must not leak into internal/ckks or internal/ring",
	Run:  runCryptorand,
}

func runCryptorand(p *Pass) error {
	switch path.Base(p.Path) {
	case "ckks", "ring":
	default:
		return nil
	}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ipath == "math/rand" || ipath == "math/rand/v2" {
				p.Reportf(imp.Pos(), "%s imported in a crypto package; use crypto/rand, or a seeded ring.KeyStream where draws must replay", ipath)
			}
		}
	}
	return nil
}
