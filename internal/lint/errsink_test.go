package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestErrsink(t *testing.T) {
	linttest.Run(t, "errsink", lint.Errsink)
}
