package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenBundle is a state-directory file written by Store.Save at the commit
// before the wire formats moved onto internal/wire: testModel("golden", 3) as
// version 1. It pins the bundle format (and, nested in it, the parameter
// literal and MLP formats) byte for byte, and proves an old server's state
// directory still loads.
const goldenBundle = "golden@1.hemodel"

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
