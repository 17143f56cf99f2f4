package ckks

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// testContext bundles everything needed by scheme tests.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinearizationKey
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
}

func newTestContext(t testing.TB, lit ParametersLiteral) *testContext {
	t.Helper()
	params, err := NewParameters(lit)
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	kg := NewKeyGenerator(params, 12345)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		encr:   NewEncryptor(params, pk, 777),
		decr:   NewDecryptor(params, sk),
		eval:   NewEvaluator(params, rlk),
	}
}

// tiny parameter set for fast tests; LogN=7 is insecure but exercises every
// code path identically.
var testLit = ParametersLiteral{LogN: 7, LogQ: []int{50, 40, 40, 40, 40}, LogP: []int{55}, LogScale: 40}

func randomComplex(rng *rand.Rand, n int, bound float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestParametersAccessors(t *testing.T) {
	params, err := NewParameters(testLit)
	if err != nil {
		t.Fatal(err)
	}
	if params.N() != 128 || params.Slots() != 64 {
		t.Fatalf("N=%d slots=%d", params.N(), params.Slots())
	}
	if params.MaxLevel() != 4 {
		t.Fatalf("MaxLevel=%d want 4", params.MaxLevel())
	}
	if got := params.DefaultScale(); got != math.Exp2(40) {
		t.Fatalf("DefaultScale=%g", got)
	}
	total := params.TotalLogQP()
	if total < 260 || total > 270 {
		t.Fatalf("TotalLogQP=%.1f outside expected range", total)
	}
	for l := 1; l <= params.MaxLevel(); l++ {
		for j := 0; j < l; j++ {
			inv := params.byTop[l].inv[j]
			if ring.MulMod(params.Q()[l]%params.Q()[j], inv, params.Q()[j]) != 1 {
				t.Fatalf("byTop[%d].inv[%d] wrong", l, j)
			}
		}
	}
}

func TestParameterValidation(t *testing.T) {
	chain := func(limbs int) ParametersLiteral {
		lit := ParametersLiteral{LogN: 4, LogQ: make([]int, limbs), LogP: []int{40}, LogScale: 30}
		for i := range lit.LogQ {
			lit.LogQ[i] = 30
		}
		return lit
	}
	cases := []ParametersLiteral{
		{LogN: 2, LogQ: []int{40}, LogP: []int{40}, LogScale: 30},
		{LogN: 10, LogQ: nil, LogP: []int{40}, LogScale: 30},
		{LogN: 10, LogQ: []int{40}, LogP: []int{40}, LogScale: 10},
		{LogN: 10, LogQ: []int{40}, LogP: nil, LogScale: 30},
		// One limb more than a key switch's 128-bit accumulator can sum.
		chain(ring.MaxAcc128Terms + 1),
	}
	for i, lit := range cases {
		if _, err := NewParameters(lit); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewParameters(chain(ring.MaxAcc128Terms)); err != nil {
		t.Errorf("a %d-limb chain: %v", ring.MaxAcc128Terms, err)
	}
	// A product divides by P and one chain prime at once, a basis of α+1
	// primes, which a base extension caps at MaxAcc128Terms−1: the widest
	// gadget compiles, one special prime more is refused by name rather
	// than by the extender inside precompute.
	special := func(alpha int) ParametersLiteral {
		lit := chain(3)
		lit.LogP = make([]int, alpha)
		for i := range lit.LogP {
			lit.LogP[i] = 30
		}
		return lit
	}
	if _, err := NewParameters(special(ring.MaxAcc128Terms - 2)); err != nil {
		t.Errorf("%d special primes: %v", ring.MaxAcc128Terms-2, err)
	}
	if _, err := NewParameters(special(ring.MaxAcc128Terms - 1)); err == nil || !strings.Contains(err.Error(), "special primes, at most") {
		t.Errorf("%d special primes: got %v, want the special-prime bound", ring.MaxAcc128Terms-1, err)
	}
	// The widest primes the substrate supports compile: GenPrimes used to
	// answer LogQ/LogP = ring.MaxModulusBits with 62-bit primes that
	// NewModulus then refused.
	widest := ParametersLiteral{LogN: 10, LogQ: []int{ring.MaxModulusBits, 45, ring.MaxModulusBits}, LogP: []int{ring.MaxModulusBits}, LogScale: 45}
	if _, err := NewParameters(widest); err != nil {
		t.Errorf("%d-bit primes: %v", ring.MaxModulusBits, err)
	}
}

// TestUndersizedSpecialModulusRefused: key-switching noise is a digit's
// magnitude over P, so a special modulus smaller than a digit it must absorb
// used to compile and then silently cost every rotation and relinearization
// precision. The error names both sizes; nominally equal sizes, whose primes
// differ by a hair either way, still compile.
func TestUndersizedSpecialModulusRefused(t *testing.T) {
	for _, c := range []struct {
		lit          ParametersLiteral
		pBits, dBits string
	}{
		{ParametersLiteral{LogN: 10, LogQ: []int{50, 40, 40}, LogP: []int{30}, LogScale: 40}, "30 bits", "50-bit"},
		// Two special primes cover two-limb digits: 80 bits against q_0·q_1.
		{ParametersLiteral{LogN: 10, LogQ: []int{50, 40, 40}, LogP: []int{40, 40}, LogScale: 40}, "80 bits", "90-bit"},
	} {
		_, err := NewParameters(c.lit)
		if err == nil || !strings.Contains(err.Error(), c.pBits) || !strings.Contains(err.Error(), c.dBits) {
			t.Errorf("LogQ=%v LogP=%v: got %v, want an error naming %s and %s", c.lit.LogQ, c.lit.LogP, err, c.pBits, c.dBits)
		}
	}
	for _, lit := range []ParametersLiteral{
		{LogN: 10, LogQ: []int{50, 40, 40}, LogP: []int{50}, LogScale: 40},
		{LogN: 10, LogQ: []int{50, 40, 40}, LogP: []int{45, 45}, LogScale: 40},
		{LogN: 10, LogQ: []int{60, 60, 60, 60}, LogP: []int{60, 60}, LogScale: 45},
	} {
		if _, err := NewParameters(lit); err != nil {
			t.Errorf("LogQ=%v LogP=%v: %v", lit.LogQ, lit.LogP, err)
		}
	}
}

func TestEncoderRoundtrip(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(1))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt)
	if e := maxErr(values, got); e > 1e-8 {
		t.Fatalf("roundtrip error %g too large", e)
	}
}

func TestEncoderFastMatchesNaive(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(2))
	values := randomComplex(rng, tc.params.Slots(), 1)

	fast, err := tc.enc.Encode(values, 1, tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := tc.enc.EncodeNaive(values, 1, tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	// Compare decoded values of both paths and cross-decode.
	dFast := tc.enc.Decode(fast)
	dNaiveDec := tc.enc.DecodeNaive(fast)
	dNaive := tc.enc.Decode(naive)
	if e := maxErr(dFast, dNaive); e > 1e-7 {
		t.Fatalf("fast vs naive encode disagree: %g", e)
	}
	if e := maxErr(dFast, dNaiveDec); e > 1e-7 {
		t.Fatalf("fast vs naive decode disagree: %g", e)
	}
}

func TestEncodeRejectsOversizedInput(t *testing.T) {
	tc := newTestContext(t, testLit)
	too := make([]complex128, tc.params.Slots()+1)
	if _, err := tc.enc.Encode(too, 1, tc.params.DefaultScale()); err == nil {
		t.Fatal("expected error for too many values")
	}
}

// TestDistinctSeedsGiveDistinctSecrets: int64 seeds that math/rand folded
// together (it reduces a seed modulo 2^31−1, so every secret was one of fewer
// than 2^31) give distinct secret keys, as do neighbouring seeds.
func TestDistinctSeedsGiveDistinctSecrets(t *testing.T) {
	params, err := NewParameters(testLit)
	if err != nil {
		t.Fatal(err)
	}
	const m = 1<<31 - 1
	for _, seeds := range [][2]int64{{42, 42 + m}, {7, 7 - m}, {42, 43}} {
		a := NewKeyGenerator(params, seeds[0]).GenSecretKey()
		b := NewKeyGenerator(params, seeds[1]).GenSecretKey()
		if a.Q.Equal(b.Q) {
			t.Errorf("seeds %d and %d give the same secret key", seeds[0], seeds[1])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(3))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	got := tc.enc.Decode(tc.decr.Decrypt(ct))
	if e := maxErr(values, got); e > 1e-6 {
		t.Fatalf("encrypt/decrypt error %g too large", e)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(4))
	a := randomComplex(rng, tc.params.Slots(), 1)
	b := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	pb, _ := tc.enc.Encode(b, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)
	cb := tc.encr.Encrypt(pb)

	sum, err := tc.eval.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(sum))); e > 1e-6 {
		t.Fatalf("add error %g", e)
	}

	// The evaluator has no Sub: subtract by adding cb's negation.
	rq := tc.params.RingQ()
	negB := &Ciphertext{C0: rq.NewPoly(cb.Level), C1: rq.NewPoly(cb.Level), Scale: cb.Scale, Level: cb.Level}
	rq.Neg(cb.C0, negB.C0)
	rq.Neg(cb.C1, negB.C1)
	diff, err := tc.eval.Add(sum, negB)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(a, tc.enc.Decode(tc.decr.Decrypt(diff))); e > 1e-6 {
		t.Fatalf("sub error %g", e)
	}
}

func TestAddScaleMismatchRejected(t *testing.T) {
	tc := newTestContext(t, testLit)
	values := make([]complex128, tc.params.Slots())
	p1, _ := tc.enc.Encode(values, 1, tc.params.DefaultScale())
	p2, _ := tc.enc.Encode(values, 1, tc.params.DefaultScale()*2)
	c1 := tc.encr.Encrypt(p1)
	c2 := tc.encr.Encrypt(p2)
	if _, err := tc.eval.Add(c1, c2); err == nil {
		t.Fatal("expected scale mismatch error")
	}
}

func TestMulPlainRescale(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(5))
	a := randomComplex(rng, tc.params.Slots(), 1)
	b := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	pb, _ := tc.enc.Encode(b, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)

	prod := tc.eval.MulPlain(ca, pb)
	prod, err := tc.eval.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(prod))); e > 1e-5 {
		t.Fatalf("plain mul error %g", e)
	}
	if prod.Level != tc.params.MaxLevel()-1 {
		t.Fatalf("level after rescale = %d", prod.Level)
	}
}

func TestMulRelinRescale(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(6))
	a := randomComplex(rng, tc.params.Slots(), 1)
	b := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	pb, _ := tc.enc.Encode(b, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)
	cb := tc.encr.Encrypt(pb)

	prod, err := tc.eval.MulRelinRescale(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(prod))); e > 1e-4 {
		t.Fatalf("ct-ct mul error %g", e)
	}
}

func TestDeepMultiplicationChain(t *testing.T) {
	// Squaring chain x -> x^2 -> x^4 -> ... down the whole modulus chain
	// verifies noise control and scale management at depth.
	tc := newTestContext(t, testLit)
	slots := tc.params.Slots()
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(0.9*math.Cos(float64(i)), 0)
	}
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	want := append([]complex128(nil), values...)
	for depth := 0; depth < tc.params.MaxLevel(); depth++ {
		var err error
		ct, err = tc.eval.MulRelinRescale(ct, ct)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		for i := range want {
			want[i] *= want[i]
		}
		got := tc.enc.Decode(tc.decr.Decrypt(ct))
		if e := maxErr(want, got); e > 1e-2 {
			t.Fatalf("depth %d: error %g too large", depth+1, e)
		}
	}
	if ct.Level != 0 {
		t.Fatalf("expected level 0 at end, got %d", ct.Level)
	}
}

func TestMulConstTargetScale(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(7))
	a := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)

	target := tc.params.DefaultScale()
	out, err := tc.eval.MulConstTargetScale(ca, -3.25, target)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scale != target {
		t.Fatalf("scale %g != target %g", out.Scale, target)
	}
	if out.Level != ca.Level-1 {
		t.Fatalf("level %d, want %d", out.Level, ca.Level-1)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] * complex(-3.25, 0)
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(out))); e > 1e-5 {
		t.Fatalf("const mul error %g", e)
	}
}

func TestDropLevelAndAddAcrossLevels(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(9))
	a := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)
	low := tc.eval.DropLevel(ca, 1)
	if low.Level != 1 {
		t.Fatalf("DropLevel level=%d", low.Level)
	}
	sum, err := tc.eval.Add(ca, low)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Level != 1 {
		t.Fatalf("cross-level add level=%d", sum.Level)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = 2 * a[i]
	}
	if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(sum))); e > 1e-6 {
		t.Fatalf("cross-level add error %g", e)
	}
}

func TestRescaleAtLevelZeroFails(t *testing.T) {
	tc := newTestContext(t, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 0, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	if _, err := tc.eval.Rescale(ct); err == nil {
		t.Fatal("expected rescale failure at level 0")
	}
}

// TestSecretMaterialRedacted: the secret key and its generator print
// redacted under every verb — no coefficient, no seed, not even a digit —
// and the reflection-based encoders refuse the key, bare or inside another
// value.
func TestSecretMaterialRedacted(t *testing.T) {
	tc := newTestContext(t, testLit)
	sk, kg := tc.sk, tc.kg
	out := fmt.Sprintf("%v %+v %#v %v %+v %#v %v", sk, *sk, sk, kg, *kg, kg, []*SecretKey{sk})
	if strings.ContainsAny(out, "0123456789") {
		t.Fatalf("secret material printed: %s", out)
	}
	for _, v := range []any{sk, *sk, struct{ Key *SecretKey }{sk}} {
		if b, err := json.Marshal(v); err == nil {
			t.Errorf("json.Marshal(%T) = %d bytes, want an error", v, len(b))
		}
		if err := gob.NewEncoder(io.Discard).Encode(v); err == nil {
			t.Errorf("gob encoded a %T", v)
		}
	}
}
