// Package linttest is the test harness for the hennlint analyzers. It
// mirrors golang.org/x/tools/go/analysis/analysistest: a fixture package
// under testdata/src/<name> is loaded and analyzed, and every expected
// diagnostic is declared in the fixture itself with a trailing marker
//
//	r.GetPoly(3) // want "is not released"
//
// where the quoted string is a regexp matched against the diagnostic
// message. Several markers may share one line (`// want "a" "b"`). The
// check is strict in both directions: a diagnostic with no matching
// marker fails the test, and so does a marker no diagnostic matched.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
)

// want is one expected-diagnostic marker.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Run loads testdata/src/<fixture> relative to the caller's directory,
// applies the analyzer, and enforces the fixture's want markers. The
// fixture is type-checked under the import path test/<fixture>, so its
// directory name is what scope-sensitive analyzers (cryptorand) see.
func Run(t *testing.T, fixture string, a *lint.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := lint.LoadDir(dir, "test/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("analyzing %s: %v", fixture, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched marker %q", w.file, w.line, w.re)
		}
	}
}

// collectWants extracts every want marker from the fixture's comments.
func collectWants(pkg *lint.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantQuoted.FindAllString(text, -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s: malformed want marker %q", pos, c.Text)
				}
				for _, q := range quoted {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: unquoting %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: compiling %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// matchWant consumes the first unmatched marker on the diagnostic's line
// whose regexp matches the message.
func matchWant(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
