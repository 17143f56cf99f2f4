package ckks

import (
	"fmt"
	"slices"

	"github.com/efficientfhe/smartpaf/internal/parallel"
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// Decoding proves a payload is well-formed; it cannot prove the payload fits
// the parameters it will be evaluated under, because the moduli are not on
// the wire. The Validate methods close that gap for everything a server
// accepts from a client. Each checks exact limb counts, the ring degree and
// that every residue is canonical (below its modulus): the modular multiply
// divides a 128-bit product by the modulus, so a residue at or above it
// overflows the quotient and panics deep inside the evaluator.

// checkPoly reports whether p has one limb of n canonical residues per
// modulus.
func checkPoly(p *ring.Poly, n int, moduli []uint64) error {
	if p == nil || len(p.Coeffs) != len(moduli) {
		return fmt.Errorf("component does not have the %d limbs the parameters need", len(moduli))
	}
	for i, limb := range p.Coeffs {
		if len(limb) != n {
			return fmt.Errorf("ring degree %d, parameters use %d", len(limb), n)
		}
		for _, c := range limb {
			if c >= moduli[i] {
				return fmt.Errorf("limb %d holds a residue not below its modulus", i)
			}
		}
	}
	return nil
}

// Validate checks that the ciphertext can be evaluated under params by a
// circuit that consumes minLevel levels.
func (ct *Ciphertext) Validate(params *Parameters, minLevel int) error {
	if ct.Level < minLevel {
		return fmt.Errorf("ckks: ciphertext level %d is below the %d the circuit consumes", ct.Level, minLevel)
	}
	if ct.Level > params.MaxLevel() {
		return fmt.Errorf("ckks: ciphertext level %d exceeds the parameters' max %d", ct.Level, params.MaxLevel())
	}
	for _, p := range []*ring.Poly{ct.C0, ct.C1} {
		if err := checkPoly(p, params.N(), params.Q()[:ct.Level+1]); err != nil {
			return fmt.Errorf("ckks: ciphertext: %w", err)
		}
	}
	return nil
}

// EvaluationKeySet is the key material a client hands a server so it can
// evaluate on the client's ciphertexts: everything NewEvaluator and
// WithRotationKeys take, and nothing that can encrypt or decrypt.
type EvaluationKeySet struct {
	Relin     *RelinearizationKey
	Rotations *RotationKeySet
}

// Validate checks the set against params and the rotation steps the circuit
// uses: every key has the gadget digits params prescribe, its b_d shaped and
// reduced for params, and the rotation keys cover exactly steps — a client may
// not pin key material the circuit never touches.
// A set that passes then gets every key's a_d expanded from its seed, one key
// per parallel.Fan job across all cores unless the set is small: only params'
// moduli make that possible, and a key built under params expands to the
// b_d's shape, with every residue canonical by construction; expansion cannot
// fail.
func (ek EvaluationKeySet) Validate(params *Parameters, steps []int) error {
	if ek.Relin == nil || ek.Rotations == nil {
		return fmt.Errorf("ckks: evaluation key set is incomplete")
	}
	if err := validateKey(params, &ek.Relin.SwitchingKey); err != nil {
		return fmt.Errorf("ckks: relinearization key: %w", err)
	}
	want := slices.Clone(steps)
	slices.Sort(want)
	want = slices.Compact(want)
	have := ek.Rotations.Steps()
	if !slices.Equal(have, want) {
		return fmt.Errorf("ckks: rotation keys cover steps %v, the model uses exactly %v", have, want)
	}
	for _, step := range have {
		if err := validateKey(params, ek.Rotations.keys[step]); err != nil {
			return fmt.Errorf("ckks: rotation key for step %d: %w", step, err)
		}
	}
	keys := []*SwitchingKey{&ek.Relin.SwitchingKey}
	for _, step := range have {
		keys = append(keys, ek.Rotations.keys[step])
	}
	// Each key expands from its own keystream, so the keys fan across all
	// cores, one per job as GenRotationKeys' are, with the same bytes under
	// any schedule. A set whose a_d hold fewer coefficients than
	// ring.MinParallelWork expands serially: that fan loses to its hand-off.
	workers := parallel.Workers(-1)
	if params.EvaluationKeysSize(len(have))/16 < ring.MinParallelWork {
		workers = 1
	}
	parallel.Fan(len(keys), workers, func(_, i int) { params.expandA(keys[i]) })
	return nil
}

// validateKey rejects a key that decoded cleanly but was built for other
// parameters, or carries residues the key-switch loop cannot multiply.
func validateKey(params *Parameters, key *SwitchingKey) error {
	if got, want := len(key.Digits), params.Digits(params.MaxLevel()); got != want {
		return fmt.Errorf("%d gadget digits, parameters need %d", got, want)
	}
	for i := range key.Digits {
		d := &key.Digits[i]
		for _, err := range []error{checkPoly(d.BQ, params.N(), params.Q()), checkPoly(d.BP, params.N(), params.P())} {
			if err != nil {
				return fmt.Errorf("digit %d: %w", i, err)
			}
		}
	}
	return nil
}
