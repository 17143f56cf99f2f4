package ckks

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"testing"
)

// goldenDigests pins the bytes of every ckks wire format: SHA-256 of the
// payloads goldenPayloads builds from fixed seeds. A digest that changes
// means deployed clients, servers and stored artifacts no longer agree. The
// ciphertext digest dates from the commit before the formats moved onto
// internal/wire; the literal and the key formats changed meaning — and
// magic — when the gadget went to grouped digits, and were regenerated then.
// The two key digests moved again when every key began shipping a seed in
// place of its a_d (new layout, new magics, and new b_d: the a_d now come
// from AES-256-CTR, so the error samples fall on other draws). The public key
// is drawn before any switching key, so the ciphertext did not move. The
// rotation-key set took a new magic again when it lost its trailing flag for
// an optional extra key; its keys' bytes did not move.
var goldenDigests = map[string]string{
	"params":        "834f335a44814ba06d3e561a1907859a6cf6093596407878455de0b02798d2fc",
	"ciphertext":    "7d6b6194c343653a307fc2c186b6a36e94d239f19095a1851fac04d1c5095ce2",
	"relin-key":     "fdbd8cc9759bc20a58a98255a3c60c97f8a157a542c6e487ef50c61d9f4550f1",
	"rotation-keys": "78b59b8d0187be5ce94749c127c682e8dfbfd700e661bb99529f282c0e56090f",
}

// wireValue is a marshalable value paired with a fresh decode target.
type wireValue struct {
	value encoding.BinaryMarshaler
	fresh func() encoding.BinaryUnmarshaler
}

// goldenPayloads builds one value of every ckks wire type, deterministically.
func goldenPayloads(t testing.TB) map[string]wireValue {
	tc := newTestContext(t, testLit)
	values := make([]complex128, tc.params.Slots())
	for i := range values {
		values[i] = complex(float64(i%7)/7-0.4, float64(i%5)/5-0.3)
	}
	pt, err := tc.enc.Encode(values, 2, tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1, 5, 2}, false)
	return map[string]wireValue{
		"params":        {testLit, func() encoding.BinaryUnmarshaler { return new(ParametersLiteral) }},
		"ciphertext":    {tc.encr.Encrypt(pt), func() encoding.BinaryUnmarshaler { return new(Ciphertext) }},
		"relin-key":     {tc.rlk, func() encoding.BinaryUnmarshaler { return new(RelinearizationKey) }},
		"rotation-keys": {rks, func() encoding.BinaryUnmarshaler { return new(RotationKeySet) }},
	}
}

func TestWireFormatsGolden(t *testing.T) {
	for name, v := range goldenPayloads(t) {
		data, err := v.value.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != goldenDigests[name] {
			t.Errorf("%s: %d bytes digest %s, want %s", name, len(data), got, goldenDigests[name])
		}
		// The large formats size their buffer up front; a formula that
		// drifts from the layout would silently regrow it.
		if name != "params" && cap(data) != len(data) {
			t.Errorf("%s: marshaled into %d bytes of a %d-byte buffer; the size formula is off", name, len(data), cap(data))
		}
	}
}

// TestWireFormatsRejectTrailingBytes: a payload with anything after its last
// field is not that format. The decoders used to stop reading and return
// success, so the infer endpoint took a ciphertext with garbage appended.
func TestWireFormatsRejectTrailingBytes(t *testing.T) {
	for name, v := range goldenPayloads(t) {
		data, err := v.value.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := v.fresh().UnmarshalBinary(data); err != nil {
			t.Errorf("%s: valid payload rejected: %v", name, err)
		}
		if err := v.fresh().UnmarshalBinary(append(data, 0)); err == nil {
			t.Errorf("%s: payload with a trailing byte decoded cleanly", name)
		}
	}
}
