package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
)

// TestGoldenDiagnostics pins every analyzer's full output — file, line,
// column, analyzer, message text, order — on every fixture package. The
// want markers only match a fragment of a message on a line; these files
// also hold acquire sites and wording, so a refactor of the engine
// underneath the analyzers shows up here as a line-by-line difference.
// To re-pin after an intended change, copy the "got" block of the failing
// subtest into testdata/golden/<name>.
func TestGoldenDiagnostics(t *testing.T) {
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fixtures {
		pkg, err := lint.LoadDir(filepath.Join("testdata", "src", e.Name()), "test/"+e.Name())
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.Run([]*lint.Package{pkg}, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String() + "\n")
		}
		compareGolden(t, e.Name()+".txt", b.String())
	}
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Errorf("%v\ngot:\n%s", err, got)
		return
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	inWant := map[string]bool{}
	for _, l := range wantLines {
		inWant[l] = true
	}
	inGot := map[string]bool{}
	for _, l := range gotLines {
		inGot[l] = true
		if !inWant[l] {
			t.Errorf("%s: not in the golden file: %s", name, l)
		}
	}
	for _, l := range wantLines {
		if !inGot[l] {
			t.Errorf("%s: missing: %s", name, l)
		}
	}
	t.Errorf("%s differs from the golden file (or only its order does); got:\n%s", name, got)
}
