package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestRefbalance(t *testing.T) {
	linttest.Run(t, "refbalance", lint.Refbalance)
}
