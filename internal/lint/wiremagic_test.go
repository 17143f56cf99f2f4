package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestWiremagic(t *testing.T) {
	linttest.Run(t, "wiremagic", lint.Wiremagic)
}
