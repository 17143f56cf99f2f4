package ckks

import (
	"strings"
	"testing"
)

// TestValidateRejectsNonCanonicalResidues is the regression test for the
// remote process kill: coefficients of 2^64-1 decode cleanly (no decoder
// knows the moduli), and the first modular multiply on them panics with an
// integer overflow in bits.Div64 — on a serving pool worker, with no recover.
// Validate is what a server runs between decode and use.
func TestValidateRejectsNonCanonicalResidues(t *testing.T) {
	tc := newTestContext(t, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	if err := ct.Validate(tc.params, 0); err != nil {
		t.Fatalf("honest ciphertext rejected: %v", err)
	}
	ct.C1.Coeffs[1][3] = ^uint64(0)
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hostile := new(Ciphertext)
	if err := hostile.UnmarshalBinary(data); err != nil {
		t.Fatalf("the decoder cannot see residues, yet rejected: %v", err)
	}
	if err := hostile.Validate(tc.params, 0); err == nil {
		t.Fatal("ciphertext with a residue of 2^64-1 validated")
	}

	steps := []int{1, 2}
	keys := func() EvaluationKeySet {
		kg := NewKeyGenerator(tc.params, 9)
		return EvaluationKeySet{Relin: kg.GenRelinearizationKey(tc.sk), Rotations: kg.GenRotationKeys(tc.sk, steps, false)}
	}
	if err := keys().Validate(tc.params, steps); err != nil {
		t.Fatalf("honest key set rejected: %v", err)
	}
	for name, corrupt := range map[string]func(EvaluationKeySet){
		"relin BQ at its modulus": func(ek EvaluationKeySet) { ek.Relin.Digits[0].BQ.Coeffs[2][0] = tc.params.Q()[2] },
		"relin BP at P":           func(ek EvaluationKeySet) { ek.Relin.Digits[1].BP.Coeffs[0][5] = tc.params.P()[0] },
		"rotation BQ at 2^64-1":   func(ek EvaluationKeySet) { ek.Rotations.keys[2].Digits[3].BQ.Coeffs[0][7] = ^uint64(0) },
	} {
		ek := keys()
		corrupt(ek)
		if err := ek.Validate(tc.params, steps); err == nil || !strings.Contains(err.Error(), "residue") {
			t.Errorf("%s: got %v, want a residue error", name, err)
		}
	}
}

// TestEvaluationKeySetValidateShapes covers the rest of the contract: the
// step set is exact, and keys built for other parameters are refused
// whichever dimension differs.
func TestEvaluationKeySetValidateShapes(t *testing.T) {
	tc := newTestContext(t, testLit)
	steps := []int{1, 2, 4}
	gen := func(c *testContext, steps []int) EvaluationKeySet {
		return EvaluationKeySet{Relin: c.rlk, Rotations: c.kg.GenRotationKeys(c.sk, steps, false)}
	}
	shallow, halfRing := testLit, testLit
	shallow.LogQ = testLit.LogQ[:3]
	halfRing.LogN = testLit.LogN - 1
	for name, ek := range map[string]EvaluationKeySet{
		"missing step":       gen(tc, []int{1, 2}),
		"extra step":         gen(tc, []int{1, 2, 4, 8}),
		"shallower chain":    gen(newTestContext(t, shallow), steps),
		"smaller ring":       gen(newTestContext(t, halfRing), steps),
		"no rotation keys":   {Relin: tc.rlk},
		"no relinearization": {Rotations: tc.kg.GenRotationKeys(tc.sk, steps, false)},
	} {
		if err := ek.Validate(tc.params, steps); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := gen(tc, steps).Validate(tc.params, []int{4, 1, 2, 1}); err != nil {
		t.Errorf("unsorted, repeated step list rejected: %v", err)
	}
}

// TestEvaluationKeySetValidateGadget: a key set is bound to the gadget of the
// parameters it is validated under, not just to their chain. Keys built for
// another number of special primes, a P component short of a limb, and a
// non-canonical residue in the last P limb are each refused — the key-switch
// loop would index past the key, or overflow its modular multiply, otherwise.
func TestEvaluationKeySetValidateGadget(t *testing.T) {
	steps := []int{1, 2}
	one, two := newTestContext(t, testLit), newTestContext(t, wideDigits)
	gen := func(c *testContext) EvaluationKeySet {
		kg := NewKeyGenerator(c.params, 9)
		return EvaluationKeySet{Relin: kg.GenRelinearizationKey(c.sk), Rotations: kg.GenRotationKeys(c.sk, steps, false)}
	}
	if err := gen(two).Validate(two.params, steps); err != nil {
		t.Fatalf("honest two-special-prime key set rejected: %v", err)
	}
	lastP := len(two.params.P()) - 1
	for name, c := range map[string]struct {
		ek     EvaluationKeySet
		params *Parameters
		want   string
	}{
		"per-prime keys under a grouped gadget": {gen(one), two.params, "gadget digits"},
		"grouped keys under a per-prime gadget": {gen(two), one.params, "gadget digits"},
		"relin P component short of a limb": {func() EvaluationKeySet {
			ek := gen(two)
			ek.Relin.Digits[0].BP = ek.Relin.Digits[0].BP.Truncate(lastP - 1)
			return ek
		}(), two.params, "limbs"},
		"rotation residue at its modulus in the last P limb": {func() EvaluationKeySet {
			ek := gen(two)
			ek.Rotations.keys[2].Digits[1].BP.Coeffs[lastP][9] = two.params.P()[lastP]
			return ek
		}(), two.params, "residue"},
	} {
		if err := c.ek.Validate(c.params, steps); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %s", name, err, c.want)
		}
	}
}

// TestCiphertextValidateShapes: level window and ring degree.
func TestCiphertextValidateShapes(t *testing.T) {
	tc := newTestContext(t, testLit)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 2, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	if err := ct.Validate(tc.params, 2); err != nil {
		t.Fatalf("level-2 ciphertext rejected at floor 2: %v", err)
	}
	if err := ct.Validate(tc.params, 3); err == nil {
		t.Error("level-2 ciphertext validated for a circuit consuming 3 levels")
	}
	halfRing := testLit
	halfRing.LogN--
	small, err := NewParameters(halfRing)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Validate(small, 0); err == nil {
		t.Error("ciphertext validated under a smaller ring")
	}
	shallow := testLit
	shallow.LogQ = testLit.LogQ[:2]
	short, err := NewParameters(shallow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Validate(short, 0); err == nil {
		t.Error("level-2 ciphertext validated under a chain with max level 1")
	}
}
