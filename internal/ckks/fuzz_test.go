package ckks

import "testing"

// FuzzCiphertextUnmarshal throws arbitrary bytes at the ciphertext wire
// decoder: it must reject garbage with an error (never panic or
// over-allocate — the internal/wire Reader is what keeps a hostile length
// field from becoming a multi-gigabyte make), and anything it accepts
// must survive a re-marshal round trip.
func FuzzCiphertextUnmarshal(f *testing.F) {
	tc := newTestContext(f, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 2, tc.params.DefaultScale())
	seed, err := tc.encr.Encrypt(pt).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[0] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ct Ciphertext
		if err := ct.UnmarshalBinary(data); err != nil {
			return // rejected cleanly: that is the contract
		}
		out, err := ct.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted ciphertext fails to re-marshal: %v", err)
		}
		var again Ciphertext
		if err := again.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-marshaled ciphertext rejected: %v", err)
		}
	})
}
