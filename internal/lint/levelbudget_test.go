package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestLevelbudget(t *testing.T) {
	linttest.Run(t, "levelbudget", lint.Levelbudget)
}
