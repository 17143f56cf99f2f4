package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestPolypool(t *testing.T) {
	linttest.Run(t, "polypool", lint.Polypool)
}
