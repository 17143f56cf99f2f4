package registry

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzModelBundleUnmarshal throws arbitrary bytes at the deploy-bundle
// decoder — the outermost wire surface an operator-facing endpoint
// accepts. Garbage must error cleanly through every nested layer
// (bundle framing, parameter literal, network), and any accepted bundle
// must survive a re-marshal round trip.
func FuzzModelBundleUnmarshal(f *testing.F) {
	seed, err := testModel(f, "fuzz", 3).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[0] ^= 0xFF
	f.Add(corrupt)
	// A bundle persisted before the literal's special modulus became a list.
	perPrime, err := os.ReadFile(filepath.Join("testdata", perPrimeBundle))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(perPrime)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := new(Model)
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted bundle fails to re-marshal: %v", err)
		}
		again := new(Model)
		if err := again.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-marshaled bundle rejected: %v", err)
		}
	})
}
