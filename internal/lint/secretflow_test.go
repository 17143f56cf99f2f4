package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestSecretflow(t *testing.T) {
	linttest.Run(t, "secretflow", lint.Secretflow)
}

// TestSecretflowSeeds runs the fixture whose directory name places it
// in the crypto-package scope, where seed-named integers are tainted.
func TestSecretflowSeeds(t *testing.T) {
	linttest.Run(t, "ckks", lint.Secretflow)
}
