package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

// TestFlowConstructs runs polypool over one fixture that has a function
// per control-flow construct the statement walker interprets, so a
// dropped arm or a wrong join shows up as a missing or unexpected
// diagnostic.
func TestFlowConstructs(t *testing.T) {
	linttest.Run(t, "flow", lint.Polypool)
}
