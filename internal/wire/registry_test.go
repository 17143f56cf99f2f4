package wire

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	registryLine = regexp.MustCompile(`(?m)^\s*0x(5AF7CC[0-9A-F]{2})\s+(.+)$`)
	magicConst   = regexp.MustCompile(`uint32\(0x(5AF7CC[0-9A-Fa-f]{2})\)`)
)

// TestMagicRegistryMatchesCode holds the package comment's magic registry to
// the module's non-test code: every magic constant is listed exactly once, as
// live; every live entry has a constant; no retired entry does. A format that
// takes a new magic must therefore retire its old one here in the same change.
func TestMagicRegistryMatchesCode(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, m := range registryLine.FindAllStringSubmatch(f.Doc.Text(), -1) {
		if _, dup := live[m[1]]; dup {
			t.Errorf("0x%s is listed twice in the registry", m[1])
		}
		live[m[1]] = !strings.HasPrefix(m[2], "retired")
	}
	if len(live) == 0 {
		t.Fatal("no registry entries found in the package comment")
	}
	// The registration frame's container went when the route took the
	// model: its magic stays allocated, and retired.
	if isLive, listed := live["5AF7CC0D"]; !listed || isLive {
		t.Error("0x5AF7CC0D, the retired registration frame, must be listed as retired")
	}

	// Walk the module from its root; bench/ is a module of its own and
	// defines no format.
	const root = "../.."
	defined := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range magicConst.FindAllStringSubmatch(string(src), -1) {
			magic := strings.ToUpper(m[1])
			defined[magic] = append(defined[magic], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no magic constants found in the module")
	}

	for magic, paths := range defined {
		isLive, listed := live[magic]
		switch {
		case len(paths) > 1:
			t.Errorf("0x%s is defined more than once: %v", magic, paths)
		case !listed:
			t.Errorf("0x%s (%s) is not in the registry", magic, paths[0])
		case !isLive:
			t.Errorf("0x%s (%s) is listed as retired but still has a constant", magic, paths[0])
		}
	}
	for magic, isLive := range live {
		if _, ok := defined[magic]; isLive && !ok {
			t.Errorf("0x%s is listed as live but no code defines it", magic)
		}
	}
}
