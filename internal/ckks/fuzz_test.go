package ckks

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"testing"
)

// hostileWidthSeeds derives, from an honest payload whose first poly's first
// width byte sits at at, the rows a decoder must survive: widths 0, 2 and 9,
// widths that shift a byte between the first two limbs at an unchanged
// total, and each retired magic in place of the live one.
func hostileWidthSeeds(honest []byte, at int, retired ...uint32) [][]byte {
	seeds := [][]byte{withBytes(honest, at, 0), withBytes(honest, at, 2), withBytes(honest, at, 9),
		withBytes(honest, at, honest[at]+1, honest[at+1]-1), withBytes(honest, at, honest[at]-1, honest[at+1]+1)}
	for _, magic := range retired {
		old := bytes.Clone(honest)
		binary.LittleEndian.PutUint32(old, magic)
		seeds = append(seeds, old)
	}
	return seeds
}

// FuzzCiphertextUnmarshal throws arbitrary bytes at the ciphertext wire
// decoder: it must reject garbage with an error (never panic or
// over-allocate — the internal/wire Reader is what keeps a hostile length
// field from becoming a multi-gigabyte make), and anything it accepts
// must survive a re-marshal round trip.
func FuzzCiphertextUnmarshal(f *testing.F) {
	tc := newTestContext(f, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 2, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	seed, err := ct.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	packed := ct.AppendWire(nil, tc.params)
	f.Add(seed)
	f.Add(packed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[0] ^= 0xFF
	f.Add(corrupt)
	for _, hostile := range hostileWidthSeeds(packed, hostileWidthsAt["ciphertext"], 0x5AF7CC09) {
		f.Add(hostile)
	}
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
// claim. Whatever either accepts must survive a round trip through its 8-byte
// form, re-marshaling then to the very same bytes, and an accepted payload
// already in the 8-byte form must re-marshal to itself; a packed payload's
// residue widths are its writer's choice, so only the 8-byte form is unique.
// An accepted key then goes through Validate's per-key check
// and, if it fits the test parameters, the expansion of its a_d: the other
// code a hostile key reaches.
func FuzzEvaluationKeysUnmarshal(f *testing.F) {
	tc := newTestContext(f, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1, 5}, false)
	relin, err := tc.rlk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	rotation, err := rks.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	relinPacked, rotationPacked := tc.rlk.AppendWire(nil, tc.params), rks.AppendWire(nil, tc.params)
	for _, seed := range [][]byte{relin, rotation, relinPacked, rotationPacked} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		corrupt := append([]byte(nil), seed...)
		corrupt[len(corrupt)/2] ^= 0xFF
		f.Add(corrupt)
	}
	for _, hostile := range hostileWidthSeeds(relinPacked, hostileWidthsAt["relin key"], 0x5AF7CC13) {
		f.Add(hostile)
	}
	for _, hostile := range hostileWidthSeeds(rotationPacked, hostileWidthsAt["rotation keys"], 0x5AF7CC14) {
		f.Add(hostile)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rlk, rks := new(RelinearizationKey), new(RotationKeySet)
		for _, c := range []struct {
			key interface {
				encoding.BinaryMarshaler
				encoding.BinaryUnmarshaler
			}
			fresh func() encoding.BinaryUnmarshaler
			keys  func() []*SwitchingKey
		}{
			{rlk, func() encoding.BinaryUnmarshaler { return new(RelinearizationKey) },
				func() []*SwitchingKey { return []*SwitchingKey{&rlk.SwitchingKey} }},
			{rks, func() encoding.BinaryUnmarshaler { return new(RotationKeySet) }, func() []*SwitchingKey {
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
			again := c.fresh()
			if err := again.UnmarshalBinary(out); err != nil {
				t.Fatalf("an accepted key's 8-byte form is rejected: %v", err)
			}
			back, err := again.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil || !bytes.Equal(back, out) {
				t.Fatal("an accepted key's 8-byte form re-marshals to other bytes")
			}
			// No width exceeds 8 bytes, so a payload as long as its 8-byte
			// form is in that form.
			if len(data) == len(out) && !bytes.Equal(out, data) {
				t.Fatal("an accepted key in the 8-byte form re-marshals to other bytes")
			}
			for _, key := range c.keys() {
				if key != nil && validateKey(tc.params, key) == nil {
					tc.params.expandA(key)
				}
			}
		}
	})
}
