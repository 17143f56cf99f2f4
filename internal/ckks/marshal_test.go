package ckks

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

func TestParametersLiteralRoundtrip(t *testing.T) {
	// Two special primes of different sizes: the list survives, in order.
	lit := ParametersLiteral{LogN: 12, LogQ: []int{55, 45, 45, 45, 45, 45, 45}, LogP: []int{55, 50}, LogScale: 45}
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
	good, _ := testLit.MarshalBinary()
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
	if err := (EvaluationKeySet{Relin: &rlk, Rotations: new(RotationKeySet)}).Validate(tc.params, nil); err != nil {
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
// a rotation under the roundtripped, validated key set must still decrypt
// correctly.
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
	if err := (EvaluationKeySet{Relin: tc.rlk, Rotations: &got}).Validate(tc.params, []int{3}); err != nil {
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

	// Conjugation still works under the roundtripped set once its a_d are
	// expanded (Validate would refuse the conjugation key).
	for _, key := range got.keys {
		tc.params.expandA(key)
	}
	tc.params.expandA(got.conjugation)
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

// TestPerPrimeEraPayloadsRefused: the literal and the key formats changed
// meaning when the gadget went to grouped digits (a key's layout did not
// change shape, so nothing else would tell the two apart), and the keys
// changed layout again when a seed replaced their a_d. A payload carrying a
// retired magic — a per-prime or unseeded key from an old client, a literal
// persisted by an old server — fails at the front door, naming the magic.
func TestPerPrimeEraPayloadsRefused(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1}, false)
	for name, c := range map[string]struct {
		value   encoding.BinaryMarshaler
		fresh   encoding.BinaryUnmarshaler
		retired uint32
	}{
		"literal":                  {testLit, new(ParametersLiteral), 0x5AF7CC05},
		"per-prime rotation keys":  {rks, new(RotationKeySet), 0x5AF7CC06},
		"per-prime relin key":      {tc.rlk, new(RelinearizationKey), 0x5AF7CC0B},
		"unseeded rotation keys":   {rks, new(RotationKeySet), 0x5AF7CC0F},
		"unseeded relin key":       {tc.rlk, new(RelinearizationKey), 0x5AF7CC10},
		"standalone switching key": {tc.rlk, new(RelinearizationKey), 0x5AF7CC11},
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
	writeKey(&w, keyA)
	w.U32(3)
	writeKey(&w, keyB)
	w.U32(0)
	var rks RotationKeySet
	if err := rks.UnmarshalBinary(w); err == nil {
		t.Fatal("mixed-degree rotation-key set unmarshaled without error")
	}
}

// seededKeyLits are the literals the seeded-key tests run at: the suite's
// tiny chain, the wide golden chain (two special primes, 60-bit primes) and
// the 128-wide serving literal (LogN 10, ten limbs, three special primes).
var seededKeyLits = map[string]ParametersLiteral{
	"small":   testLit,
	"wide":    goldenEvalLits["wide"],
	"serving": {LogN: 10, LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: []int{55, 55, 55}, LogScale: 45},
}

// seededKeySteps is a spread of rotation steps, small and large, so every
// literal's set holds keys under many Galois elements.
var seededKeySteps = []int{1, 2, 3, 8, 16, 33, 60}

// TestSeededKeysDecodeToGeneratorBytes: a key crosses the wire as its seed
// and its b_d; decoding and validating it — what a server does — rebuilds
// the a_d byte for byte, so the server evaluates under the very key the
// client generated. Allocation stays bounded by the payload: the decode holds
// the b_d (at most twice the payload), and the expansion adds the a_d in the
// b_d's shape (no more than the decode allocated, plus one keystream per key).
func TestSeededKeysDecodeToGeneratorBytes(t *testing.T) {
	for name, lit := range seededKeyLits {
		tc := newTestContext(t, lit)
		rks := tc.kg.GenRotationKeys(tc.sk, seededKeySteps, false)
		rlkBytes, err := tc.rlk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rksBytes, err := rks.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := 4 + tc.params.KeyWireSize(); len(rlkBytes) != want {
			t.Errorf("%s: relinearization key is %d bytes on the wire, KeyWireSize says %d", name, len(rlkBytes), want)
		}
		got := EvaluationKeySet{Relin: new(RelinearizationKey), Rotations: new(RotationKeySet)}
		decoded := allocated(func() {
			if err := got.Relin.UnmarshalBinary(rlkBytes); err != nil {
				t.Fatal(err)
			}
			if err := got.Rotations.UnmarshalBinary(rksBytes); err != nil {
				t.Fatal(err)
			}
		})
		expanded := allocated(func() {
			if err := got.Validate(tc.params, seededKeySteps); err != nil {
				t.Fatal(err)
			}
		})
		payload, keys := uint64(len(rlkBytes)+len(rksBytes)), uint64(1+len(seededKeySteps))
		t.Logf("%s: %d payload bytes; decode allocated %d, expansion %d", name, payload, decoded, expanded)
		if decoded > 2*payload && !raceEnabled {
			t.Errorf("%s: decoding %d payload bytes allocated %d", name, payload, decoded)
		}
		if expanded > decoded+keys*4096 && !raceEnabled {
			t.Errorf("%s: expanding the a_d allocated %d bytes, the b_d %d", name, expanded, decoded)
		}

		want := map[string]*SwitchingKey{"relin": &tc.rlk.SwitchingKey}
		have := map[string]*SwitchingKey{"relin": &got.Relin.SwitchingKey}
		for _, step := range rks.Steps() {
			want[fmt.Sprint("step ", step)], have[fmt.Sprint("step ", step)] = rks.keys[step], got.Rotations.keys[step]
		}
		for key, w := range want {
			h := have[key]
			if h.Seed != w.Seed || len(h.Digits) != len(w.Digits) {
				t.Fatalf("%s %s: seed or digit count differs after the round trip", name, key)
			}
			for i := range w.Digits {
				wd, hd := &w.Digits[i], &h.Digits[i]
				if !hd.BQ.Equal(wd.BQ) || !hd.AQ.Equal(wd.AQ) || !hd.BP.Equal(wd.BP) || !hd.AP.Equal(wd.AP) {
					t.Errorf("%s %s digit %d: decoded key differs from the generated one", name, key, i)
				}
			}
		}
	}
}

// TestEvaluationKeysSizeIsExpandedBytes: EvaluationKeysSize, what a server
// charges a session against its key budget, is the coefficient bytes of a
// key set decoded and validated the way a server holds it, a_d expanded.
func TestEvaluationKeysSizeIsExpandedBytes(t *testing.T) {
	for name, lit := range seededKeyLits {
		tc := newTestContext(t, lit)
		rlkBytes, err := tc.rlk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rksBytes, err := tc.kg.GenRotationKeys(tc.sk, seededKeySteps, false).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		keys := EvaluationKeySet{Relin: new(RelinearizationKey), Rotations: new(RotationKeySet)}
		if err := keys.Relin.UnmarshalBinary(rlkBytes); err != nil {
			t.Fatal(err)
		}
		if err := keys.Rotations.UnmarshalBinary(rksBytes); err != nil {
			t.Fatal(err)
		}
		if err := keys.Validate(tc.params, seededKeySteps); err != nil {
			t.Fatal(err)
		}
		held, all := 0, []*SwitchingKey{&keys.Relin.SwitchingKey}
		for _, key := range keys.Rotations.keys {
			all = append(all, key)
		}
		for _, key := range all {
			for _, d := range key.Digits {
				for _, p := range []*ring.Poly{d.BQ, d.AQ, d.BP, d.AP} {
					for _, limb := range p.Coeffs {
						held += 8 * len(limb)
					}
				}
			}
		}
		if want := tc.params.EvaluationKeysSize(len(seededKeySteps)); held != want {
			t.Errorf("%s: the validated key set holds %d coefficient bytes, EvaluationKeysSize says %d", name, held, want)
		}
	}
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSeededKeyDecodersRefuseMalformedKeys: a seed cut short, a digit count
// that disagrees with the b_d behind it (either way), and a seed with no
// digits at all are errors in both key formats, never a key.
func TestSeededKeyDecodersRefuseMalformedKeys(t *testing.T) {
	tc := newTestContext(t, testLit)
	relin, err := tc.rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rotation, err := tc.kg.GenRotationKeys(tc.sk, []int{1}, false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []struct {
		name    string
		payload []byte
		at      int // offset of the first key's seed
		fresh   func() encoding.BinaryUnmarshaler
	}{
		{"relinearization key", relin, 4, func() encoding.BinaryUnmarshaler { return new(RelinearizationKey) }},
		{"rotation keys", rotation, 12, func() encoding.BinaryUnmarshaler { return new(RotationKeySet) }},
	} {
		count := format.at + 32
		digits := binary.LittleEndian.Uint32(format.payload[count:])
		withCount := func(n uint32) []byte {
			out := append([]byte(nil), format.payload...)
			binary.LittleEndian.PutUint32(out[count:], n)
			return out
		}
		seedOnly := append(append([]byte(nil), format.payload[:count]...), 0, 0, 0, 0)
		if format.name == "rotation keys" {
			seedOnly = append(seedOnly, 0, 0, 0, 0) // no conjugation key
		}
		for name, data := range map[string][]byte{
			"truncated seed":            format.payload[:format.at+20],
			"one digit more than sent":  withCount(digits + 1),
			"one digit fewer than sent": withCount(digits - 1),
			"seed with no digits":       seedOnly,
		} {
			if err := format.fresh().UnmarshalBinary(data); err == nil {
				t.Errorf("%s: %s decoded without error", format.name, name)
			}
		}
	}

	// Nor may one digit's b_d disagree in shape with the first digit's.
	ragged := RelinearizationKey{SwitchingKey{Seed: tc.rlk.Seed, Digits: slices.Clone(tc.rlk.Digits)}}
	ragged.Digits[1].BQ = ragged.Digits[1].BQ.Truncate(1)
	data, err := ragged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(RelinearizationKey).UnmarshalBinary(data); err == nil {
		t.Error("relinearization key with a digit a limb short decoded without error")
	}
}

// TestWireSeedsAreDistinctAndOneWay: every key a generator makes ships its
// own seed, and no seed carries a value the secret or error samplers were
// seeded with — the generator seed, or deriveSeed's output for any tag the
// generator used — at any offset: those lead back to the secret key.
func TestWireSeedsAreDistinctAndOneWay(t *testing.T) {
	tc := newTestContext(t, testLit)
	steps := []int{1, 2, 3, 5, 8, 13, 21, 34, 55}
	rks := tc.kg.GenRotationKeys(tc.sk, steps, true)
	keys := map[int64]*SwitchingKey{relinTag: &tc.rlk.SwitchingKey, int64(2*tc.params.N() - 1): rks.conjugation}
	for _, step := range rks.Steps() {
		keys[int64(tc.params.galoisElement(step))] = rks.keys[step]
	}
	secretSeeds := map[int64]bool{tc.kg.seed: true}
	for tag := range keys {
		secretSeeds[deriveSeed(tc.kg.seed, tag)] = true
	}
	seen := map[[32]byte]int64{}
	for tag, key := range keys {
		if other, dup := seen[key.Seed]; dup {
			t.Errorf("keys tagged %d and %d share a wire seed", tag, other)
		}
		seen[key.Seed] = tag
		for off := 0; off+8 <= len(key.Seed); off++ {
			if v := int64(binary.LittleEndian.Uint64(key.Seed[off:])); secretSeeds[v] {
				t.Errorf("key tagged %d: its wire seed holds a sampler seed at offset %d", tag, off)
			}
		}
	}
}

// BenchmarkExpandDigitVsKeySwitch prices expanding a_d on the fly against
// streaming it: drawing one digit's a_d (ten Q limbs and three P limbs) from a
// warm keystream, beside one level-9 key switch (four digits), on the 128-wide
// serving literal. A key switch that regenerated its key would pay the first
// once per digit.
func BenchmarkExpandDigitVsKeySwitch(b *testing.B) {
	tc := newTestContext(b, seededKeyLits["serving"])
	level, rq, rp := tc.params.MaxLevel(), tc.params.RingQ(), tc.params.RingP()
	b.Run("expand-digit", func(b *testing.B) {
		ks := ring.NewKeyStream(tc.rlk.Seed)
		for i := 0; i < b.N; i++ {
			rq.Uniform(ks, level)
			rp.Uniform(ks, len(tc.params.P())-1)
		}
	})
	b.Run("key-switch", func(b *testing.B) {
		pt, err := tc.enc.Encode(make([]complex128, tc.params.Slots()), level, tc.params.DefaultScale())
		if err != nil {
			b.Fatal(err)
		}
		c1 := tc.encr.Encrypt(pt).C1
		for i := 0; i < b.N; i++ {
			e0, e1 := tc.eval.keySwitch(c1, tc.rlk.Digits, level)
			rq.PutPoly(e0)
			rq.PutPoly(e1)
		}
	})
}
