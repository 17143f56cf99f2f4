package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenBundle is a state-directory file as Store.Save writes it:
// testModel("golden", 3) as version 1. It pins the bundle format (and, nested
// in it, the parameter literal and MLP formats) byte for byte, and proves a
// state directory written by this format's first server still loads.
//
// perPrimeBundle is the same model written at the commit before the literal's
// special modulus became a list: the bundle framing and the MLP in it are
// unchanged, the nested literal carries a retired magic.
const (
	goldenBundle   = "golden@1.hemodel"
	perPrimeBundle = "perprime@1.hemodel"
)

func TestBundleWireFormatGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", goldenBundle))
	if err != nil {
		t.Fatal(err)
	}
	got, err := testModel(t, "golden", 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bundle bytes differ from the stored golden file (%d vs %d bytes)", len(got), len(want))
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, goldenBundle), want, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, warnings := store.Load()
	if len(warnings) != 0 || len(loaded) != 1 || loaded[0].Model.Name != "golden" || loaded[0].Version != 1 {
		t.Fatalf("stored bundle did not load: %d models, warnings %v", len(loaded), warnings)
	}
}

// TestPerPrimeBundleRefusedAtRestart: a state directory left by a server from
// before grouped digits holds literals this build cannot honour — silently
// reading one as a single special prime would serve sessions whose clients
// derive different keys. The bundle is skipped with a warning that names the
// file and the magic, and the rest of the directory loads.
func TestPerPrimeBundleRefusedAtRestart(t *testing.T) {
	dir := t.TempDir()
	for from, to := range map[string]string{perPrimeBundle: "old@1.hemodel", goldenBundle: goldenBundle} {
		data, err := os.ReadFile(filepath.Join("testdata", from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, warnings := store.Load()
	if len(loaded) != 1 || loaded[0].Model.Name != "golden" {
		t.Fatalf("loaded %d models, want only the current-format bundle", len(loaded))
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0].Error(), "old@1.hemodel") || !strings.Contains(warnings[0].Error(), "magic") {
		t.Fatalf("warnings %v, want one naming old@1.hemodel and its magic", warnings)
	}
}
