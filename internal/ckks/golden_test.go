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
// an optional extra key; its keys' bytes did not move. The ciphertext and
// both key formats moved together when each limb gained a residue-width byte
// and their magics changed; the "-packed" rows, the form that crosses the
// network, were added then. No residue moved: the new 8-byte rows, their
// width bytes stripped and the old magics restored, hash to the old digests.
// Every row but params moved when the secret, the errors and the encryption
// mask left math/rand for AES-256-CTR keystreams derived from the widened
// seed (ring.SeedKey, ring.StreamKey): other samples, so other b_d and other
// ciphertext residues. No format moved: the same new sampler and derivation
// on the commit before give these digests.
var goldenDigests = map[string]string{
	"params":               "834f335a44814ba06d3e561a1907859a6cf6093596407878455de0b02798d2fc",
	"ciphertext":           "c1a3524906b4114658df7389bcc33f4f04edef6ac84fe24198486050c19b0cc3",
	"relin-key":            "9abd89d656b689f6459cc3b3117b6e6039f7d6b73a2ef23bc32396498ed165b8",
	"rotation-keys":        "3a81723cde97b7a2f8132dd237106a105b1c4b524430f31225bb47f5b03449e1",
	"ciphertext-packed":    "4725980ff71497572931e9d483a733b19ebbdd4986ae49a54ceb6c66e8b7d33f",
	"relin-key-packed":     "a53dd24efa6ba6ee99259b907c488f5817128a1581c7d85648dd0ff738738f06",
	"rotation-keys-packed": "cdfcdd6c3ea7f3a9b7c779b5e5924c9b6dde063ed86ccc766e4b3f05702fe573",
}

// packed marshals a ciphertext or key the way a writer holding the
// parameters does, into a buffer of the size the parameters give.
type packed struct {
	value interface {
		AppendWire([]byte, *Parameters) []byte
	}
	params *Parameters
	size   int
}

func (p packed) MarshalBinary() ([]byte, error) {
	return p.value.AppendWire(make([]byte, 0, p.size), p.params), nil
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
	ct := tc.encr.Encrypt(pt)
	return map[string]wireValue{
		"params":        {testLit, func() encoding.BinaryUnmarshaler { return new(ParametersLiteral) }},
		"ciphertext":    {ct, func() encoding.BinaryUnmarshaler { return new(Ciphertext) }},
		"relin-key":     {tc.rlk, func() encoding.BinaryUnmarshaler { return new(RelinearizationKey) }},
		"rotation-keys": {rks, func() encoding.BinaryUnmarshaler { return new(RotationKeySet) }},
		"ciphertext-packed": {packed{ct, tc.params, tc.params.CiphertextWireSize(ct.Level)},
			func() encoding.BinaryUnmarshaler { return new(Ciphertext) }},
		"relin-key-packed": {packed{tc.rlk, tc.params, tc.params.RelinKeyWireSize()},
			func() encoding.BinaryUnmarshaler { return new(RelinearizationKey) }},
		"rotation-keys-packed": {packed{rks, tc.params, tc.params.RotationKeysWireSize(3)},
			func() encoding.BinaryUnmarshaler { return new(RotationKeySet) }},
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
