package lint_test

import (
	"os"
	"regexp"
	"slices"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
)

// TestReadmeAnalyzerTable keeps the README's analyzer table, the
// documentation of record, equal to the suite `hennlint -list` prints:
// a row per analyzer, no row for anything else.
func TestReadmeAnalyzerTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` *\\| ").FindAllSubmatch(readme, -1) {
		documented = append(documented, string(m[1]))
	}
	var suite []string
	for _, a := range lint.All() {
		suite = append(suite, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(suite)
	if !slices.Equal(documented, suite) {
		t.Errorf("README analyzer table lists %v, the suite is %v", documented, suite)
	}
}
