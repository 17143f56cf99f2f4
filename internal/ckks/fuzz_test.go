package ckks

import (
	"bytes"
	"encoding"
	"testing"
)

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

// FuzzEvaluationKeysUnmarshal throws arbitrary bytes at both evaluation-key
// decoders. Each must reject garbage with an error — never panic, and never
// allocate more than a small multiple of the payload, whatever its counts
// claim — and whatever either accepts must re-marshal to the very same bytes.
// An accepted key then goes through Validate's per-key check and, if it
// fits the test parameters, the expansion of its a_d: the other code a
// hostile key reaches.
func FuzzEvaluationKeysUnmarshal(f *testing.F) {
	tc := newTestContext(f, testLit)
	relin, err := tc.rlk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	rotation, err := tc.kg.GenRotationKeys(tc.sk, []int{1, 5}, false).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{relin, rotation} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		corrupt := append([]byte(nil), seed...)
		corrupt[len(corrupt)/2] ^= 0xFF
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rlk, rks := new(RelinearizationKey), new(RotationKeySet)
		for _, c := range []struct {
			key interface {
				encoding.BinaryMarshaler
				encoding.BinaryUnmarshaler
			}
			keys func() []*SwitchingKey
		}{
			{rlk, func() []*SwitchingKey { return []*SwitchingKey{&rlk.SwitchingKey} }},
			{rks, func() []*SwitchingKey {
				var keys []*SwitchingKey
				for _, key := range rks.keys {
					keys = append(keys, key)
				}
				return keys
			}},
		} {
			var err error
			if alloc := allocated(func() { err = c.key.UnmarshalBinary(data) }); alloc > 8*uint64(len(data))+64<<10 && !raceEnabled {
				t.Fatalf("a %d-byte payload made the decoder allocate %d bytes", len(data), alloc)
			}
			if err != nil {
				continue // rejected cleanly: that is the contract
			}
			out, err := c.key.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted key fails to re-marshal: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("an accepted key re-marshals to other bytes")
			}
			for _, key := range c.keys() {
				if key != nil && validateKey(tc.params, key) == nil {
					tc.params.expandA(key)
				}
			}
		}
	})
}
