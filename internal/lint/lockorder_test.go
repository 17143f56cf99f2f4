package lint_test

import (
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
	"github.com/efficientfhe/smartpaf/internal/lint/linttest"
)

func TestLockorder(t *testing.T) {
	linttest.Run(t, "lockorder", lint.Lockorder)
}

// TestLockorderMalformedPins drives the lockorderbad fixture by hand:
// its diagnostics land on the directive comments' own lines, which a
// line comment cannot share with a want marker.
func TestLockorderMalformedPins(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/lockorderbad", "test/lockorderbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Lockorder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "malformed") {
			t.Errorf("diagnostic is not a malformed-pin report: %s", d)
		}
	}
}

// TestLockGraphDOT checks the -lockgraph emitter over the cycle fixture:
// every class and both directions of the seeded cycle must appear, and
// the pinned poolA < poolB edge must be drawn dashed.
func TestLockGraphDOT(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/src/lockorder", "test/lockorder")
	if err != nil {
		t.Fatal(err)
	}
	dot := lint.LockGraphDOT([]*lint.Package{pkg})
	for _, snippet := range []string{
		"digraph lockorder {",
		`"lockorder.catalog.mu" -> "lockorder.stack.mu"`,
		`"lockorder.stack.mu" -> "lockorder.catalog.mu"`,
		`"lockorder.poolA.mu" -> "lockorder.poolB.mu"`,
		"style=dashed",
	} {
		if !strings.Contains(dot, snippet) {
			t.Errorf("DOT output missing %q:\n%s", snippet, dot)
		}
	}
	if strings.Contains(dot, `"lockorder.seqA.mu" -> "lockorder.seqB.mu"`) {
		t.Errorf("sequential locks must not produce an edge:\n%s", dot)
	}
}
