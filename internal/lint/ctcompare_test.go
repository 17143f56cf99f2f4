package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestCtcompare(t *testing.T) {
	linttest.Run(t, "ctcompare", lint.Ctcompare)
}
