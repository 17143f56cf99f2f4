package lint_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

// TestFlowConstructs runs the three clients of the shared statement
// walker over one fixture that has a function per control-flow
// construct: polypool and lockguard through want markers, lockorder
// (whose findings are whole cycles, not sites) through TestFlowLockEdges.
func TestFlowConstructs(t *testing.T) {
	linttest.Run(t, "flow", lint.Polypool, lint.Lockguard, lint.Lockorder)
}

// TestFlowLockEdges reads lockorder's view of each construct off the
// lock graph: every order* function of the fixture locks its own a and
// b (or hands b to locked), so "a is held where b is taken" is one edge
// per function, present or absent.
func TestFlowLockEdges(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/flow", "test/flow")
	if err != nil {
		t.Fatal(err)
	}
	dot := lint.LockGraphDOT([]*lint.Package{pkg})
	for _, c := range []struct {
		fn, to string
		edge   bool
	}{
		{"orderIfBothTerminate", "b", true}, // the else arm runs with a held
		{"orderIfNoElse", "b", true},        // a survives on the path that skips the arm
		{"orderForBody", "b", true},         // a lock taken in the body reaches the code after the loop
		{"orderForPost", "locked.m", true},
		{"orderRangeOperand", "locked.m", true},
		{"orderSwitchDefault", "b", false}, // every clause released a, and one of them always runs
		{"orderSwitchNoDefault", "b", true},
		{"orderSwitchTag", "locked.m", true},
		{"orderTypeSwitchInit", "b", true},
		{"orderSelectComm", "locked.m", true},
		{"orderLabeled", "b", true},
		{"orderDeferred", "b", true},       // a deferred unlock holds to the end
		{"orderGoLiteral", "b", false},     // another stack
		{"orderInvokedLiteral", "b", true}, // runs right here
		{"orderStoredLiteral", "b", false}, // runs who knows when
		{"orderLoopBreak", "b", true},      // break leaves the loop with a held
		{"orderSwitchBreak", "b", false},   // break leaves the switch only; a is released below it
	} {
		to := c.fn + "." + c.to
		if strings.Contains(c.to, ".") {
			to = c.to
		}
		edge := fmt.Sprintf("%q -> %q", "flow."+c.fn+".a", "flow."+to)
		if got := strings.Contains(dot, edge); got != c.edge {
			t.Errorf("%s: edge %s present = %v, want %v", c.fn, edge, got, c.edge)
		}
	}
}
