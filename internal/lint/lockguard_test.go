package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestLockguard(t *testing.T) {
	linttest.Run(t, "lockguard", lint.Lockguard)
}
