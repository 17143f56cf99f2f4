package ckks

import (
	"fmt"
	"sort"

	"github.com/efficientfhe/smartpaf/internal/parallel"
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// SwitchingKey re-encrypts a ciphertext component from some source key to
// the canonical secret s, using the same per-prime gadget as
// relinearization: digit i holds (-a_i·s + e_i + P·g_i·source, a_i).
type SwitchingKey struct {
	Digits []EvaluationKeyDigit
}

// RotationKeySet holds switching keys for slot rotations (by step) and
// complex conjugation.
type RotationKeySet struct {
	keys        map[int]*SwitchingKey // step -> key for φ_{5^step}(s)
	conjugation *SwitchingKey
}

// Steps lists the normalized rotation steps the set has keys for, sorted.
func (rks *RotationKeySet) Steps() []int {
	out := make([]int, 0, len(rks.keys))
	for step := range rks.keys {
		out = append(out, step)
	}
	sort.Ints(out)
	return out
}

// galoisElement returns the Galois exponent k of X→X^k implementing a left
// rotation of the slot vector by step positions: k = 5^step mod 2N, by
// square-and-multiply — Rotate computes this per call, so the O(step) naive
// power loop was hot-path work at large ring sizes.
func (p *Parameters) galoisElement(step int) int {
	m := 2 * p.N()
	step = ((step % (m / 4)) + m/4) % (m / 4) // rotations are mod N/2 slots
	return int(ring.PowMod(5, uint64(step), uint64(m)))
}

// applyAutomorphism computes out(X) = in(X^k) in coefficient domain, per
// limb: coefficient i maps to index i·k mod 2N, negated when it crosses N.
// The map is a bijection on [0, N), so every coefficient of out is written;
// out may come from GetPolyRaw. out must not alias in.
func applyAutomorphism(r *ring.Ring, in *ring.Poly, k int, out *ring.Poly) {
	n := r.N
	m := 2 * n
	for limb := range in.Coeffs {
		q := r.Moduli[limb].Q
		src := in.Coeffs[limb]
		dst := out.Coeffs[limb]
		for i := 0; i < n; i++ {
			j := i * k % m
			if j < n {
				dst[j] = src[i]
			} else {
				dst[j-n] = ring.NegMod(src[i], q)
			}
		}
	}
}

// genSwitchingKey builds a switching key from sourceQ (NTT domain, the key
// being switched *from*) to the canonical secret. Only the Q embedding of
// the source is needed: the gadget term P·g_i·source vanishes mod P.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sourceQ *ring.Poly) *SwitchingKey {
	L := kg.params.MaxLevel()
	rq := kg.params.RingQ()
	rp := kg.params.RingP()
	swk := &SwitchingKey{Digits: make([]EvaluationKeyDigit, L+1)}
	for i := 0; i <= L; i++ {
		aQ := kg.samplerQ.Uniform(L)
		aP := kg.samplerP.Uniform(0)
		eSigned := kg.samplerQ.GaussianSigned()
		eQ := rq.SetSignedCoeffs(eSigned, L)
		eP := rp.SetSignedCoeffs(eSigned, 0)
		rq.NTT(eQ)
		rp.NTT(eP)

		bQ := rq.NewPoly(L)
		rq.MulCoeffs(aQ, sk.Q, bQ)
		rq.Neg(bQ, bQ)
		rq.Add(bQ, eQ, bQ)
		qi := kg.params.Q()[i]
		pModQi := kg.params.pModQ[i]
		srcLimb := sourceQ.Coeffs[i]
		bLimb := bQ.Coeffs[i]
		for j := range bLimb {
			bLimb[j] = ring.AddMod(bLimb[j], ring.MulMod(srcLimb[j], pModQi, qi), qi)
		}

		bP := rp.NewPoly(0)
		rp.MulCoeffs(aP, sk.P, bP)
		rp.Neg(bP, bP)
		rp.Add(bP, eP, bP)
		swk.Digits[i] = EvaluationKeyDigit{BQ: bQ, AQ: aQ, BP: bP, AP: aP}
	}
	return swk
}

// deriveSeed mixes the generator seed with a per-key tag (splitmix64 finisher)
// so every switching key draws from an independent deterministic stream — the
// set is reproducible regardless of generation order or worker count.
func deriveSeed(seed, tag int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(tag)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// GenRotationKeys builds switching keys for the given rotation steps
// (positive = rotate slot vector left) and, when conjugation is true, for
// complex conjugation. Keys are independent, so generation fans across all
// cores (rotation-key sets dominate serving-session setup otherwise); each
// key's randomness is derived from the generator seed and its Galois element,
// keeping the result deterministic under any schedule.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, steps []int, conjugation bool) *RotationKeySet {
	uniq := make([]int, 0, len(steps))
	seen := map[int]bool{}
	for _, step := range steps {
		norm := normalizeStep(step, kg.params.Slots())
		if norm == 0 || seen[norm] {
			continue
		}
		seen[norm] = true
		uniq = append(uniq, norm)
	}

	jobs := len(uniq)
	if conjugation {
		jobs++
	}
	// The coefficient-domain secret is the same for every key: compute it
	// once and share it read-only across the jobs (applyAutomorphism only
	// reads its source). The P embedding is never needed — the gadget term
	// P·g_i·source vanishes mod P.
	rq := kg.params.RingQ()
	skCoeff := sk.Q.CopyNew()
	rq.INTT(skCoeff)

	generated := make([]*SwitchingKey, jobs)
	// The error func is vestigial here (key generation cannot fail); parallel.For
	// is the repo-wide index fan.
	_ = parallel.For(jobs, parallel.Workers(-1), func(i int) error {
		k := 2*kg.params.N() - 1 // conjugation element, used by the extra job
		if i < len(uniq) {
			k = kg.params.galoisElement(uniq[i])
		}
		sub := &KeyGenerator{
			params:   kg.params,
			samplerQ: ring.NewSampler(kg.params.RingQ(), deriveSeed(kg.seed, int64(k))),
			samplerP: ring.NewSampler(kg.params.RingP(), deriveSeed(kg.seed, int64(k))^0x5eed),
		}
		// Source secret φ_k(s) in NTT domain over Q.
		srcQ := rq.NewPoly(skCoeff.Level())
		applyAutomorphism(rq, skCoeff, k, srcQ)
		rq.NTT(srcQ)
		generated[i] = sub.genSwitchingKey(sk, srcQ)
		return nil
	})

	rks := &RotationKeySet{keys: make(map[int]*SwitchingKey, len(uniq))}
	for i, norm := range uniq {
		rks.keys[norm] = generated[i]
	}
	if conjugation {
		rks.conjugation = generated[len(uniq)]
	}
	return rks
}

func normalizeStep(step, slots int) int {
	return ((step % slots) + slots) % slots
}

// WithRotationKeys attaches rotation keys to the evaluator. It mutates the
// evaluator and must be called during setup, before the evaluator is shared
// across goroutines.
func (ev *Evaluator) WithRotationKeys(rks *RotationKeySet) *Evaluator {
	ev.rks = rks
	return ev
}

// Rotate rotates the slot vector left by step positions (z_i ← z_{i+step}).
// Negative steps rotate right. Requires a rotation key for the normalized
// step.
func (ev *Evaluator) Rotate(ct *Ciphertext, step int) (*Ciphertext, error) {
	norm := normalizeStep(step, ev.params.Slots())
	if norm == 0 {
		return ct.CopyNew(), nil
	}
	if ev.rks == nil {
		return nil, fmt.Errorf("ckks: evaluator has no rotation keys")
	}
	swk, ok := ev.rks.keys[norm]
	if !ok {
		return nil, fmt.Errorf("ckks: no rotation key for step %d", norm)
	}
	return ev.applyGalois(ct, ev.params.galoisElement(norm), swk)
}

// Conjugate applies complex conjugation to all slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	if ev.rks == nil || ev.rks.conjugation == nil {
		return nil, fmt.Errorf("ckks: evaluator has no conjugation key")
	}
	return ev.applyGalois(ct, 2*ev.params.N()-1, ev.rks.conjugation)
}

// applyGalois maps (c0, c1) to (φ(c0) + KS(φ(c1)), KS(φ(c1))) under the
// switching key for φ(s). All temporaries come from the ring pool: one
// coefficient-domain scratch serves both components, the automorphism
// destinations are fully overwritten (so raw pool polys suffice), and the
// two polys that survive into the result are simply never returned.
func (ev *Evaluator) applyGalois(ct *Ciphertext, k int, swk *SwitchingKey) (*Ciphertext, error) {
	mark := stageClock()
	rq := ev.params.RingQ()
	level := ct.Level

	tmp := rq.GetPolyRaw(level)
	copyLimbs(tmp, ct.C1, level)
	rq.INTT(tmp)
	c1 := rq.GetPolyRaw(level)
	applyAutomorphism(rq, tmp, k, c1)
	rq.NTT(c1)

	ks0, ks1 := ev.keySwitch(c1, swk.Digits, level)
	rq.PutPoly(c1)

	copyLimbs(tmp, ct.C0, level)
	rq.INTT(tmp)
	c0 := rq.GetPolyRaw(level)
	applyAutomorphism(rq, tmp, k, c0)
	rq.NTT(c0)
	rq.PutPoly(tmp)

	out := &Ciphertext{C0: c0, C1: ks1, Scale: ct.Scale, Level: level}
	rq.Add(c0, ks0, out.C0)
	rq.PutPoly(ks0)
	stageDone("rotate", mark)
	return out, nil
}

// copyLimbs copies limbs 0..level of src into dst.
func copyLimbs(dst, src *ring.Poly, level int) {
	for i := 0; i <= level; i++ {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
}
