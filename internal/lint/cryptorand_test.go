package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

// TestCryptorand covers the in-scope fixture (directory named "ring",
// with two violating files: a plain import, and one under the retired
// deterministic-sampling annotation, which no longer exempts it).
func TestCryptorand(t *testing.T) {
	linttest.Run(t, "ring", lint.Cryptorand)
}

// TestCryptorandOutOfScope: math/rand outside the crypto packages is
// not the analyzer's business.
func TestCryptorandOutOfScope(t *testing.T) {
	linttest.Run(t, "mathok", lint.Cryptorand)
}
