package ckks

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// TestCiphertextRoundtripDecrypts: a ciphertext survives the wire in both
// forms, packed at the parameters' widths and at 8 bytes a residue.
func TestCiphertextRoundtripDecrypts(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(77))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, 2, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	eight, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for form, data := range map[string][]byte{"8-byte": eight, "packed": ct.AppendWire(nil, tc.params)} {
		var got Ciphertext
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if got.Level != ct.Level || got.Scale != ct.Scale || !got.C0.Equal(ct.C0) || !got.C1.Equal(ct.C1) {
			t.Fatalf("%s: the ciphertext differs after the round trip", form)
		}
		dec := tc.enc.Decode(tc.decr.Decrypt(&got))
		if e := maxErr(values, dec); e > 1e-6 {
			t.Fatalf("%s: roundtripped ciphertext decrypts with error %g", form, e)
		}
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
	writePoly(&w, ct.C0, tc.params.Q())
	writePoly(&w, shrunk, tc.params.Q())
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

// TestRotationKeySetRoundtrip checks the container metadata: the step set
// survives, and equal sets serialize identically.
func TestRotationKeySetRoundtrip(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1, 5, 2, 5, -1}, false)

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
	data2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshaling a roundtripped set changed the bytes")
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
	// The retired layout ended in a u32 flag for an optional extra key.
	if err := rks.UnmarshalBinary(append(good, 0, 0, 0, 0)); err == nil {
		t.Fatal("expected error on a trailing key flag")
	}
}

// TestPerPrimeEraPayloadsRefused: the literal and the key formats changed
// meaning when the gadget went to grouped digits (a key's layout did not
// change shape, so nothing else would tell the two apart), and the keys
// changed layout again when a seed replaced their a_d; the rotation-key set
// changed once more when its trailing key flag went; and the ciphertext and
// both key formats when residues went from 8 bytes each to per-limb widths. A
// payload carrying a retired magic — a per-prime, unseeded, flagged or 8-byte
// key or ciphertext from an old client, a literal persisted by an old server
// — fails at the front door, naming the magic.
func TestPerPrimeEraPayloadsRefused(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1}, false)
	pt, err := tc.enc.EncodeReals(make([]float64, tc.params.Slots()), tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
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
		"flagged rotation keys":    {rks, new(RotationKeySet), 0x5AF7CC12},
		"8-byte ciphertext":        {ct, new(Ciphertext), 0x5AF7CC09},
		"8-byte relin key":         {tc.rlk, new(RelinearizationKey), 0x5AF7CC13},
		"8-byte rotation keys":     {rks, new(RotationKeySet), 0x5AF7CC14},
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
	writeKey(&w, keyA, nil, nil)
	w.U32(3)
	writeKey(&w, keyB, nil, nil)
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
// and its b_d, packed at the primes' widths; decoding and validating it —
// what a server does — rebuilds the a_d byte for byte, so the server
// evaluates under the very key the client generated. Allocation stays bounded
// by the payload: the decode holds the b_d (at most twice the payload), and
// the expansion adds the a_d in the b_d's shape (no more than the decode
// allocated, plus one keystream per key). The wire sizes a server sizes
// bodies by are pinned against the packed bytes too: KeyWireSize, and
// CiphertextWireSize at every level.
func TestSeededKeysDecodeToGeneratorBytes(t *testing.T) {
	for name, lit := range seededKeyLits {
		tc := newTestContext(t, lit)
		rks := tc.kg.GenRotationKeys(tc.sk, seededKeySteps, false)
		rlkBytes := tc.rlk.AppendWire(nil, tc.params)
		rksBytes := rks.AppendWire(nil, tc.params)
		if want := 4 + tc.params.KeyWireSize(); len(rlkBytes) != want {
			t.Errorf("%s: relinearization key is %d bytes on the wire, KeyWireSize says %d", name, len(rlkBytes), want)
		}
		for level := 0; level <= tc.params.MaxLevel(); level++ {
			pt, err := tc.enc.EncodeReals(make([]float64, tc.params.Slots()), level, tc.params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			ctBytes := tc.encr.Encrypt(pt).AppendWire(nil, tc.params)
			if want := tc.params.CiphertextWireSize(level); len(ctBytes) != want {
				t.Errorf("%s: level-%d ciphertext is %d bytes on the wire, CiphertextWireSize says %d", name, level, len(ctBytes), want)
			}
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

// TestKeyWritersMatchMarshal: the streaming front-ends write, behind
// whatever the stream already holds, the bytes the in-process front-ends'
// keys pack to under the same parameters, drawing from the samplers in the
// same order; the rotation steps are normalized, deduplicated and sorted on
// the way, as GenRotationKeys and the wire form have them. The rotation keys
// fan across cores and reach the stream in step order, on one P, on three
// (eight keys leave the last round uneven) and on four.
func TestKeyWritersMatchMarshal(t *testing.T) {
	steps := []int{60, -1, 3, 0, 1, 3, 2, 16, 33, 8}
	for name, lit := range seededKeyLits {
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(params, 9)
		sk := kg.GenSecretKey()
		rlk := kg.GenRelinearizationKey(sk).AppendWire(nil, params)
		rks := kg.GenRotationKeys(sk, steps, false).AppendWire(nil, params)
		want := append(append([]byte("prefix"), rlk...), rks...)
		for _, procs := range []int{1, 3, 4} {
			prev := runtime.GOMAXPROCS(procs)
			kg = NewKeyGenerator(params, 9)
			sk = kg.GenSecretKey()
			got := bytes.NewBufferString("prefix")
			err := kg.WriteRelinearizationKey(got, sk)
			if err == nil {
				err = kg.WriteRotationKeys(got, sk, steps)
			}
			runtime.GOMAXPROCS(prev)
			if err != nil || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s, GOMAXPROCS=%d: %d streamed bytes (%v) differ from the %d marshaled", name, procs, got.Len(), err, len(want))
			}
		}
	}
}

// failAfter is a stream that takes n bytes and fails every write after them.
type failAfter struct{ n, writes int }

var errStreamFull = errors.New("stream full")

func (f *failAfter) Write(b []byte) (int, error) {
	f.writes++
	if len(b) > f.n {
		return 0, errStreamFull
	}
	f.n -= len(b)
	return len(b), nil
}

// TestWriteRotationKeysStopsAtWriteError: a stream that fails part-way
// through a set stops the fan. WriteRotationKeys returns the stream's error
// and writes nothing after it, whatever the number of workers: with three,
// seven keys leave the last round uneven.
func TestWriteRotationKeysStopsAtWriteError(t *testing.T) {
	params, err := NewParameters(seededKeyLits["serving"])
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 9)
	sk := kg.GenSecretKey()
	entry := 4 + params.KeyWireSize()
	for _, procs := range []int{1, 3, 4} {
		for _, keys := range []int{0, 1, 5} {
			prev := runtime.GOMAXPROCS(procs)
			stream := &failAfter{n: 8 + keys*entry}
			err := kg.WriteRotationKeys(stream, sk, seededKeySteps)
			runtime.GOMAXPROCS(prev)
			if !errors.Is(err, errStreamFull) || stream.writes != keys+2 {
				t.Errorf("GOMAXPROCS=%d, a stream full after %d keys: %d writes, error %v; want %d writes and the stream's error",
					procs, keys, stream.writes, err, keys+2)
			}
		}
	}
}

// TestKeyReaderReadsOneKeyAtATime: a KeyReader under the parameters reads
// each key whole into one reused buffer, so decoding a relinearization key
// and a rotation-key set off a stream allocates the decoded b_d and one
// key's wire bytes, not the blobs. It refuses a set declaring another count
// having read only the set's head.
func TestKeyReaderReadsOneKeyAtATime(t *testing.T) {
	params, err := NewParameters(seededKeyLits["serving"])
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 9)
	sk := kg.GenSecretKey()
	var blobs bytes.Buffer
	if err := kg.WriteRelinearizationKey(&blobs, sk); err != nil {
		t.Fatal(err)
	}
	if err := kg.WriteRotationKeys(&blobs, sk, seededKeySteps); err != nil {
		t.Fatal(err)
	}
	payload := blobs.Bytes()
	keys := 1 + len(seededKeySteps)
	bQ := params.EvaluationKeysSize(len(seededKeySteps)) / 2 // decoded b_d, 8 bytes a residue
	var rlk *RelinearizationKey
	var rks *RotationKeySet
	alloc := allocated(func() {
		kr := params.NewKeyReader(bytes.NewReader(payload))
		if rlk, err = kr.RelinearizationKey(); err == nil {
			rks, err = kr.RotationKeys(len(seededKeySteps))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := append(rlk.AppendWire(nil, params), rks.AppendWire(nil, params)...); !bytes.Equal(got, payload) {
		t.Fatal("the keys read off the stream re-pack to other bytes")
	}
	t.Logf("%d keys of %d wire bytes: decoding allocated %d bytes, the b_d take %d", keys, params.KeyWireSize(), alloc, bQ)
	if bound := uint64(bQ + 4 + params.KeyWireSize() + keys*4096); alloc > bound && !raceEnabled {
		t.Errorf("decoding %d keys off a stream allocated %d bytes, over their b_d and one key's wire bytes (%d)", keys, alloc, bound)
	}

	rest := bytes.NewReader(payload[params.RelinKeyWireSize():])
	if _, err := params.NewKeyReader(rest).RotationKeys(len(seededKeySteps) - 1); err == nil || rest.Len() != len(payload)-params.RelinKeyWireSize()-8 {
		t.Errorf("a set of %d keys read as one of %d: error %v, %d bytes left unread", len(seededKeySteps), len(seededKeySteps)-1, err, rest.Len())
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
// own seed, and no seed carries, at any offset, eight bytes of a key the
// secret or error streams derive from — the generator's widened key, its
// secret stream's key, or the error stream's key of any tag the generator
// used — nor the int64 seed itself: those lead back to the secret key. No
// key's error stream is the stream its a_d come from.
func TestWireSeedsAreDistinctAndOneWay(t *testing.T) {
	tc := newTestContext(t, testLit)
	steps := []int{1, 2, 3, 5, 8, 13, 21, 34, 55}
	rks := tc.kg.GenRotationKeys(tc.sk, steps, false)
	keys := map[uint64]*SwitchingKey{relinTag: &tc.rlk.SwitchingKey}
	for _, step := range rks.Steps() {
		keys[uint64(tc.params.galoisElement(step))] = rks.keys[step]
	}
	secretKeys := [][32]byte{tc.kg.key, ring.StreamKey(tc.kg.key, secretLabel, 0)}
	for tag := range keys {
		secretKeys = append(secretKeys, ring.StreamKey(tc.kg.key, errorLabel, tag))
	}
	secretWords := map[uint64]bool{12345: true} // newTestContext's seed
	for _, k := range secretKeys {
		for off := 0; off+8 <= len(k); off++ {
			secretWords[binary.LittleEndian.Uint64(k[off:])] = true
		}
	}
	seen := map[[32]byte]uint64{}
	for tag, key := range keys {
		if other, dup := seen[key.Seed]; dup {
			t.Errorf("keys tagged %d and %d share a wire seed", tag, other)
		}
		seen[key.Seed] = tag
		seed, ks, errs := tc.kg.keyStreams(tag)
		if errs.Uniform(0).Equal(tc.params.RingQ().Uniform(ks, 0)) || seed != key.Seed {
			t.Errorf("key tagged %d: its errors are drawn from its public a_d stream, or it ships another seed", tag)
		}
		for off := 0; off+8 <= len(key.Seed); off++ {
			if secretWords[binary.LittleEndian.Uint64(key.Seed[off:])] {
				t.Errorf("key tagged %d: its wire seed holds secret stream bytes at offset %d", tag, off)
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
			e0, e1 := keySwitch(tc.eval, c1, tc.rlk.Digits, level)
			rq.PutPoly(e0)
			rq.PutPoly(e1)
		}
	})
}

// packedSizeLits are the literals the packed sizes are pinned at: the
// 128-wide serving chain at LogN 10, the 27-degree alpha10 benchmark model's
// fifteen-limb chain with four special primes, and the demo model's literal
// on the ring a compliant server selects for it (2^15).
var packedSizeLits = map[string]ParametersLiteral{
	"serving":   seededKeyLits["serving"],
	"paf-heavy": {LogN: 10, LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: []int{55, 55, 55, 55}, LogScale: 45},
	"served":    {LogN: 15, LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: []int{55, 55, 55}, LogScale: 45},
}

// streamedLen is the bytes write puts on a stream.
func streamedLen(t *testing.T, write func(io.Writer) error) int {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// TestPackedSizesMatchPayloads: CiphertextWireSize, RelinKeyWireSize and
// RotationKeysWireSize are the lengths of real payloads packed under each
// literal — a top-level ciphertext, the relinearization key and a two-key
// set, generated straight into the wire form as a client does — so a server's
// exact-size checks admit what clients send. The 45- and 55-bit primes take 6
// and 7 bytes a residue, not 8.
func TestPackedSizesMatchPayloads(t *testing.T) {
	for name, lit := range packedSizeLits {
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(params, 5)
		sk := kg.GenSecretKey()
		pt, err := NewEncoder(params).EncodeReals(make([]float64, params.Slots()), params.MaxLevel(), params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := NewEncryptor(params, kg.GenPublicKey(sk), 5).Encrypt(pt)
		eight, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for what, c := range map[string]struct{ got, want int }{
			"ciphertext":        {len(ct.AppendWire(nil, params)), params.CiphertextWireSize(params.MaxLevel())},
			"relin key":         {streamedLen(t, func(w io.Writer) error { return kg.WriteRelinearizationKey(w, sk) }), params.RelinKeyWireSize()},
			"rotation-key set":  {streamedLen(t, func(w io.Writer) error { return kg.WriteRotationKeys(w, sk, []int{1, 5}) }), params.RotationKeysWireSize(2)},
			"8-byte ciphertext": {len(eight), ciphertextSize(nil, params.MaxLevel()+1, params.N())},
		} {
			if c.got != c.want {
				t.Errorf("%s: a %s is %d bytes, its size says %d", name, what, c.got, c.want)
			}
		}
		// The 55-bit base and special primes pack to 7 bytes, the 45-bit
		// rescaling primes to 6; each poly adds its header and a width byte
		// per limb.
		L, alpha, n := params.MaxLevel(), len(params.P()), params.N()
		wantCt := 16 + 2*(8+L+1+n*(7+6*L))
		wantKey := 32 + 4 + params.Digits(L)*(8+L+1+n*(7+6*L)+8+alpha+n*7*alpha)
		if params.CiphertextWireSize(L) != wantCt || params.KeyWireSize() != wantKey {
			t.Errorf("%s: a ciphertext packs to %d bytes and a key to %d, want %d and %d",
				name, params.CiphertextWireSize(L), params.KeyWireSize(), wantCt, wantKey)
		}
		t.Logf("%s: a top-level ciphertext packs %d → %d bytes (%.3fx), a key %d → %d bytes (%.3fx)", name,
			len(eight), wantCt, float64(wantCt)/float64(len(eight)),
			keySize(nil, nil, params.Digits(L), L+1, alpha, n), wantKey, float64(wantKey)/float64(keySize(nil, nil, params.Digits(L), L+1, alpha, n)))
	}
}

// TestDecodersRefuseHostileWidths: a residue width outside 3..8 is refused
// by every decoder. Widths that shift bytes between the first two limbs at an
// unchanged total keep the payload's length, so they pass a server's
// exact-size check and may even decode; the widened limb then reads its
// neighbor's bytes as high bytes, and Validate refuses the residues at or
// above their prime. So it does a single residue equal to its prime, while
// one below it passes.
func TestDecodersRefuseHostileWidths(t *testing.T) {
	tc := newTestContext(t, testLit)
	steps := []int{1}
	pt, err := tc.enc.EncodeReals(make([]float64, tc.params.Slots()), tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	validate := map[string]func([]byte) error{
		"ciphertext": func(data []byte) error {
			var got Ciphertext
			if err := got.UnmarshalBinary(data); err != nil {
				return err
			}
			return got.Validate(tc.params, tc.params.MaxLevel())
		},
		"relin key": func(data []byte) error {
			keys := EvaluationKeySet{Relin: new(RelinearizationKey), Rotations: new(RotationKeySet)}
			if err := keys.Relin.UnmarshalBinary(data); err != nil {
				return err
			}
			if err := keys.Rotations.UnmarshalBinary(tc.kg.GenRotationKeys(tc.sk, steps, false).AppendWire(nil, tc.params)); err != nil {
				return err
			}
			return keys.Validate(tc.params, steps)
		},
		"rotation keys": func(data []byte) error {
			keys := EvaluationKeySet{Relin: new(RelinearizationKey), Rotations: new(RotationKeySet)}
			if err := keys.Relin.UnmarshalBinary(tc.rlk.AppendWire(nil, tc.params)); err != nil {
				return err
			}
			if err := keys.Rotations.UnmarshalBinary(data); err != nil {
				return err
			}
			return keys.Validate(tc.params, steps)
		},
	}
	payloads := map[string][]byte{
		"ciphertext":    ct.AppendWire(nil, tc.params),
		"relin key":     tc.rlk.AppendWire(nil, tc.params),
		"rotation keys": tc.kg.GenRotationKeys(tc.sk, steps, false).AppendWire(nil, tc.params),
	}
	for format, honest := range payloads {
		at := hostileWidthsAt[format] // the first poly's first width byte
		if err := validate[format](honest); err != nil {
			t.Fatalf("%s: the honest payload is refused: %v", format, err)
		}
		rows := map[string][]byte{}
		for _, width := range []byte{0, 2, 9} {
			rows[fmt.Sprintf("width %d", width)] = withBytes(honest, at, width)
		}
		w0, w1 := honest[at], honest[at+1]
		rows["widths shifted toward limb 0"] = withBytes(honest, at, w0+1, w1-1)
		rows["widths shifted toward limb 1"] = withBytes(honest, at, w0-1, w1+1)
		// The first residue of the first limb is its first w0 bytes behind
		// the widths; the first poly's limbs are over the chain's first prime.
		first := at + int(binary.LittleEndian.Uint32(honest[at-8:]))
		q := tc.params.Q()[0]
		rows["residue equal to its prime"] = withResidue(honest, first, int(w0), q)
		for name, data := range rows {
			if len(data) != len(honest) {
				t.Fatalf("%s %s: the row changed the payload's length", format, name)
			}
			if err := validate[format](data); err == nil {
				t.Errorf("%s: %s passed decode and Validate", format, name)
			}
		}
		if err := validate[format](withResidue(honest, first, int(w0), q-1)); err != nil {
			t.Errorf("%s: a residue one below its prime is refused: %v", format, err)
		}
	}
}

// hostileWidthsAt is the offset of the first poly's first width byte in each
// packed format: behind the magic, the ciphertext's level and scale, a key's
// seed and digit count (and a rotation key's set count and step), and the
// poly's limb count and degree.
var hostileWidthsAt = map[string]int{"ciphertext": 4 + 4 + 8 + 8, "relin key": 4 + 32 + 4 + 8, "rotation keys": 4 + 4 + 4 + 32 + 4 + 8}

// withBytes returns a copy of data with the bytes at off replaced by bs.
func withBytes(data []byte, off int, bs ...byte) []byte {
	out := bytes.Clone(data)
	copy(out[off:], bs)
	return out
}

// withResidue returns a copy of data with the width-byte residue at off set
// to v.
func withResidue(data []byte, off, width int, v uint64) []byte {
	out := bytes.Clone(data)
	for k := 0; k < width; k++ {
		out[off+k] = byte(v >> (8 * k))
	}
	return out
}
