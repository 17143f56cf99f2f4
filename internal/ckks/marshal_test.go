package ckks

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

func TestParametersLiteralRoundtrip(t *testing.T) {
	lit := PN12
	lit.LogP = []int{55, 50} // two special primes of different sizes: the list survives, in order
	data, err := lit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ParametersLiteral
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.LogN != lit.LogN || !slices.Equal(got.LogP, lit.LogP) || got.LogScale != lit.LogScale || !slices.Equal(got.LogQ, lit.LogQ) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, lit)
	}
	// Deterministic derivation: both sides build identical parameters.
	p1, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewParameters(got)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p1.Q(), p2.Q()) {
		t.Fatal("prime chains differ after roundtrip")
	}
	if !slices.Equal(p1.P(), p2.P()) {
		t.Fatal("special primes differ")
	}
}

func TestParametersLiteralBadInput(t *testing.T) {
	var lit ParametersLiteral
	if err := lit.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated input")
	}
	good, _ := PN11.MarshalBinary()
	good[0] ^= 0xFF
	if err := lit.UnmarshalBinary(good); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestCiphertextRoundtripDecrypts(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(77))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, 2, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Ciphertext
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Level != ct.Level || got.Scale != ct.Scale {
		t.Fatalf("metadata mismatch: (%d, %g) vs (%d, %g)", got.Level, got.Scale, ct.Level, ct.Scale)
	}
	dec := tc.enc.Decode(tc.decr.Decrypt(&got))
	if e := maxErr(values, dec); e > 1e-6 {
		t.Fatalf("roundtripped ciphertext decrypts with error %g", e)
	}
}

func TestCiphertextBadInput(t *testing.T) {
	var ct Ciphertext
	if err := ct.UnmarshalBinary([]byte{0}); err == nil {
		t.Fatal("expected error on truncated ciphertext")
	}
}

// mutateScale rewrites the scale field (bytes 8..16, after magic and
// level) of a marshaled ciphertext in place.
func mutateScale(data []byte, scale float64) {
	binary.LittleEndian.PutUint64(data[8:], math.Float64bits(scale))
}

// TestCiphertextRejectsHostileScale is the regression test for the wire bug
// where a NaN/Inf/zero/negative scale round-tripped silently and corrupted
// later arithmetic instead of erroring at the boundary.
func TestCiphertextRejectsHostileScale(t *testing.T) {
	tc := newTestContext(t, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 2, tc.params.DefaultScale())
	data, err := tc.encr.Encrypt(pt).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -tc.params.DefaultScale()} {
		hostile := append([]byte(nil), data...)
		mutateScale(hostile, scale)
		var ct Ciphertext
		if err := ct.UnmarshalBinary(hostile); err == nil {
			t.Errorf("scale %g unmarshaled without error", scale)
		}
	}
	// The untouched payload still round-trips.
	var ct Ciphertext
	if err := ct.UnmarshalBinary(data); err != nil {
		t.Fatalf("valid ciphertext rejected: %v", err)
	}
}

// TestCiphertextRejectsDegreeMismatch is the regression test for the wire
// bug where C0 and C1 could deserialize with different ring degrees N (only
// limb counts were checked).
func TestCiphertextRejectsDegreeMismatch(t *testing.T) {
	tc := newTestContext(t, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 1, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	// Re-marshal by hand with C1 at half the ring degree but identical limb
	// count: header (level, scale), full C0, shrunken C1.
	shrunk := &ring.Poly{Coeffs: make([][]uint64, len(ct.C1.Coeffs))}
	for i := range shrunk.Coeffs {
		shrunk.Coeffs[i] = ct.C1.Coeffs[i][:tc.params.N()/2]
	}
	var w wire.Writer
	w.U32(ciphertextMagic)
	w.U32(uint32(ct.Level))
	w.F64(ct.Scale)
	writePoly(&w, ct.C0)
	writePoly(&w, shrunk)
	var got Ciphertext
	if err := got.UnmarshalBinary(w); err == nil {
		t.Fatal("C0/C1 ring-degree mismatch unmarshaled without error")
	}
}

func TestRelinearizationKeyRoundtripMultiplies(t *testing.T) {
	tc := newTestContext(t, testLit)
	data, err := tc.rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rlk RelinearizationKey
	if err := rlk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(tc.params, &rlk)
	rng := rand.New(rand.NewSource(78))
	a := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)
	prod, err := eval.MulRelinRescale(ca, ca)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * a[i]
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(prod))); e > 1e-4 {
		t.Fatalf("multiplication under roundtripped rlk fails: %g", e)
	}
}

// TestSwitchingKeyRoundtripRotates proves a switching key survives the wire:
// a rotation under the roundtripped key set must still decrypt correctly.
func TestSwitchingKeyRoundtripRotates(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{3}, false)

	data, err := rks.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got RotationKeySet
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(tc.params, tc.rlk).WithRotationKeys(&got)

	rng := rand.New(rand.NewSource(91))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	rot, err := eval.Rotate(tc.encr.Encrypt(pt), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(values))
	for i := range values {
		want[i] = values[(i+3)%len(values)]
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(rot))); e > 1e-5 {
		t.Fatalf("rotation under roundtripped key fails: %g", e)
	}
}

// TestRotationKeySetRoundtrip checks the container metadata: step set and
// conjugation flag survive, and equal sets serialize identically.
func TestRotationKeySetRoundtrip(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1, 5, 2, 5, -1}, true)

	data, err := rks.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got RotationKeySet
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	wantSteps := rks.Steps()
	gotSteps := got.Steps()
	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("step count %d after roundtrip, want %d", len(gotSteps), len(wantSteps))
	}
	for i := range wantSteps {
		if gotSteps[i] != wantSteps[i] {
			t.Fatalf("steps %v after roundtrip, want %v", gotSteps, wantSteps)
		}
	}
	if got.conjugation == nil {
		t.Fatal("conjugation key lost in roundtrip")
	}
	data2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshaling a roundtripped set changed the bytes")
	}

	// Conjugation still works under the roundtripped set.
	eval := NewEvaluator(tc.params, tc.rlk).WithRotationKeys(&got)
	rng := rand.New(rand.NewSource(92))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	conj, err := eval.Conjugate(tc.encr.Encrypt(pt))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(values))
	for i := range values {
		want[i] = complex(real(values[i]), -imag(values[i]))
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(conj))); e > 1e-5 {
		t.Fatalf("conjugation under roundtripped key fails: %g", e)
	}
}

func TestRotationKeySetBadInput(t *testing.T) {
	var rks RotationKeySet
	if err := rks.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("expected error on truncated set")
	}
	tc := newTestContext(t, testLit)
	good, err := tc.kg.GenRotationKeys(tc.sk, []int{1}, false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if err := rks.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if err := rks.UnmarshalBinary(good[:len(good)-5]); err == nil {
		t.Fatal("expected error on truncated digits")
	}
}

// TestPerPrimeEraPayloadsRefused: the literal and the three key formats
// changed meaning when the gadget went to grouped digits (a key's layout did
// not change shape, so nothing else would tell the two apart). A payload
// carrying a retired magic — a per-prime key from an old client, a literal
// persisted by an old server — fails at the front door, naming the magic.
func TestPerPrimeEraPayloadsRefused(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1}, false)
	for name, c := range map[string]struct {
		value   encoding.BinaryMarshaler
		fresh   encoding.BinaryUnmarshaler
		retired uint32
	}{
		"literal":       {testLit, new(ParametersLiteral), 0x5AF7CC05},
		"rotation keys": {rks, new(RotationKeySet), 0x5AF7CC06},
		"relin key":     {tc.rlk, new(RelinearizationKey), 0x5AF7CC0B},
		"switching key": {rks.keys[1], new(SwitchingKey), 0x5AF7CC0C},
	} {
		data, err := c.value.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data, c.retired)
		if err := c.fresh.UnmarshalBinary(data); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("%s under its retired magic %#x: got %v, want a magic error", name, c.retired, err)
		}
	}
}

// TestRotationKeySetRejectsMixedShapes: keys inside one set must share a
// ring degree/chain, or the spliced set would panic key-switching later.
func TestRotationKeySetRejectsMixedShapes(t *testing.T) {
	tc := newTestContext(t, testLit)
	small := testLit
	small.LogN = testLit.LogN - 1
	tcSmall := newTestContext(t, small)

	keyA := tc.kg.GenRotationKeys(tc.sk, []int{1}, false).keys[1]
	keyB := tcSmall.kg.GenRotationKeys(tcSmall.sk, []int{3}, false).keys[3]

	var w wire.Writer
	w.U32(rotationKeyMagic)
	w.U32(2)
	w.U32(1)
	writeDigits(&w, keyA.Digits)
	w.U32(3)
	writeDigits(&w, keyB.Digits)
	w.U32(0)
	var rks RotationKeySet
	if err := rks.UnmarshalBinary(w); err == nil {
		t.Fatal("mixed-degree rotation-key set unmarshaled without error")
	}
}
