package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestObsdiscipline(t *testing.T) {
	linttest.Run(t, "obsdiscipline", lint.Obsdiscipline)
}
