package lint_test

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
)

// TestSelfCheck pins `hennlint ./...` green on the repository itself: the
// full analyzer suite runs over the whole module and must report nothing.
// It is the programmatic twin of the CI `make lint` gate — a leaked pool
// buffer, a dropped wire-decode error or a level-budget margin fails the
// ordinary test run immediately instead of waiting for the lint job.
func TestSelfCheck(t *testing.T) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}
