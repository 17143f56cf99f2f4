package ckks

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// Hoisted rotations (Halevi–Shoup). A plain rotation pays, per call, the
// full RNS digit decomposition of c1: one INTT per digit, a base extension
// of every digit to every limb of Q and to P, and one NTT per extended
// limb — O(L²) transforms that dominate the key switch. The decomposition
// depends only on the input ciphertext, not on the rotation step, so a set
// of rotations of one ciphertext (the baby-step block of a BSGS linear
// layer) can hoist it: decompose once, then apply each step's Galois
// automorphism to the precomputed digits as an NTT-domain slot permutation
// (pure data movement, no transforms) followed by the multiply-accumulate
// against that step's switching key.
//
// Soundness of permuting the extended digits: the automorphism φ_k is a
// ring homomorphism mod every q_j, so Σ φ_k(u_i)·g_i ≡ φ_k(Σ u_i·g_i) ≡
// φ_k(c1) (mod Q_level) — the permuted digits are valid (signed) digits of
// φ_k(c1) with the same magnitude bound |u_i| < q_i, giving the same noise
// growth as the plain path. The outputs are not bit-identical to plain
// Rotate (the digit lifts differ by multiples of q_i on sign-flipped
// coefficients) but agree within standard key-switch noise; the equivalence
// tests pin this with the decode-and-compare harness.

// HoistedDecomposition is the reusable, step-independent part of a rotation:
// the digit decomposition of a ciphertext's c1 extended to the full Q·P
// basis and returned to NTT domain. It is bound to the ciphertext it was
// built from and is strictly per-call state — callers create it, rotate
// against it (concurrently if they wish; it is read-only once built), and
// Release it. It must never be stored on the Evaluator, which stays
// stateless and shareable.
type HoistedDecomposition struct {
	ct    *Ciphertext
	level int
	rq    *ring.Ring
	rp    *ring.Ring
	decQ  []*ring.Poly // decQ[i]: digit i over limbs 0..level, NTT domain
	decP  []*ring.Poly // decP[i]: digit i over the special prime, NTT domain
}

// DecomposeHoisted performs the digit decomposition of ct's c1 once, for
// reuse by any number of RotateHoisted calls. It costs about as much as the
// decomposition inside one plain rotation.
func (ev *Evaluator) DecomposeHoisted(ct *Ciphertext) *HoistedDecomposition {
	mark := stageClock()
	rq := ev.params.RingQ()
	rp := ev.params.RingP()
	n := ev.params.N()
	p := ev.params.P()
	level := ct.Level

	dec := &HoistedDecomposition{
		ct: ct, level: level, rq: rq, rp: rp,
		decQ: make([]*ring.Poly, level+1),
		decP: make([]*ring.Poly, level+1),
	}
	for i := range dec.decQ {
		// Every limb is fully overwritten below, so raw pool polys suffice.
		dec.decQ[i] = rq.GetPolyRaw(level)
		dec.decP[i] = rp.GetPolyRaw(0)
	}

	// Stage 1: extract digit u_i = [c1]_{q_i} into coefficient domain.
	digits := make([][]uint64, level+1)
	for i := range digits {
		digits[i] = rq.GetScratch()
	}
	ring.ForEachLimb(level+1, n, func(i int) {
		copy(digits[i], ct.C1.Coeffs[i])
		rq.Moduli[i].INTT(digits[i])
	})

	// Stage 2: extend each digit to every limb of Q and to P, NTT in place.
	// The (digit, target-limb) pairs are independent, so they fan flat.
	ring.ForEachLimb((level+1)*(level+2), n, func(job int) {
		i, j := job/(level+2), job%(level+2)
		digit := digits[i]
		qi := ev.params.Q()[i]
		if j <= level {
			dst := dec.decQ[i].Coeffs[j]
			qj := rq.Moduli[j].Q
			if qi <= qj {
				copy(dst, digit)
			} else {
				for k := 0; k < n; k++ {
					dst[k] = digit[k] % qj
				}
			}
			rq.Moduli[j].NTT(dst)
			return
		}
		dst := dec.decP[i].Coeffs[0]
		if qi <= p {
			copy(dst, digit)
		} else {
			for k := 0; k < n; k++ {
				dst[k] = digit[k] % p
			}
		}
		rp.Moduli[0].NTT(dst)
	})
	for i := range digits {
		rq.PutScratch(digits[i])
	}
	stageDone("decompose_hoisted", mark)
	return dec
}

// Release returns the decomposition's polynomials to the ring pools. The
// decomposition must not be used afterwards.
func (dec *HoistedDecomposition) Release() {
	for i := range dec.decQ {
		dec.rq.PutPoly(dec.decQ[i])
		dec.rp.PutPoly(dec.decP[i])
	}
	dec.decQ = nil
	dec.decP = nil
}

// RotateHoisted rotates the decomposed ciphertext left by step positions,
// exactly like Rotate on the ciphertext dec was built from, but reusing the
// hoisted decomposition: per call it performs only the automorphism
// permutations, the key multiply-accumulate and the final mod-down — no
// digit extraction, base extension or forward transforms.
func (ev *Evaluator) RotateHoisted(dec *HoistedDecomposition, step int) (*Ciphertext, error) {
	norm := normalizeStep(step, ev.params.Slots())
	if norm == 0 {
		return dec.ct.CopyNew(), nil
	}
	if ev.rks == nil {
		return nil, fmt.Errorf("ckks: evaluator has no rotation keys")
	}
	swk, ok := ev.rks.keys[norm]
	if !ok {
		return nil, fmt.Errorf("ckks: no rotation key for step %d", norm)
	}
	return ev.applyGaloisHoisted(dec, ev.params.galoisElement(norm), swk)
}

// ConjugateHoisted applies complex conjugation against the decomposition.
func (ev *Evaluator) ConjugateHoisted(dec *HoistedDecomposition) (*Ciphertext, error) {
	if ev.rks == nil || ev.rks.conjugation == nil {
		return nil, fmt.Errorf("ckks: evaluator has no conjugation key")
	}
	return ev.applyGaloisHoisted(dec, 2*ev.params.N()-1, ev.rks.conjugation)
}

// applyGaloisHoisted computes (φ(c0) + KS(φ(c1)), KS(φ(c1))) where φ is
// applied to the precomputed digits and to c0 as an NTT-domain slot
// permutation fused into the consuming loops.
func (ev *Evaluator) applyGaloisHoisted(dec *HoistedDecomposition, k int, swk *SwitchingKey) (*Ciphertext, error) {
	mark := stageClock()
	ct := dec.ct
	rq := ev.params.RingQ()
	n := ev.params.N()
	level := dec.level
	idx := ev.params.galoisNTTIndex(k)

	// Per-digit multiply-accumulate against the switching key, unreduced like
	// keySwitch's; the permuted digit limb is gathered into a scratch buffer
	// first so both key components multiply against it. Fans across digits.
	var accs []ksAcc
	ring.ForEachWorker(level+1, (level+2)*n, func(workers int) {
		accs = ev.newKSAccs(workers, level)
	}, func(w, i int) {
		acc := &accs[w]
		evk := &swk.Digits[i]
		v := rq.GetScratch()
		defer rq.PutScratch(v)
		for j := 0; j <= level; j++ {
			gather(v, dec.decQ[i].Coeffs[j], idx)
			acc.q0.mulAdd(j, v, evk.BQ.Coeffs[j])
			acc.q1.mulAdd(j, v, evk.AQ.Coeffs[j])
		}
		gather(v, dec.decP[i].Coeffs[0], idx)
		acc.p0.mulAdd(0, v, evk.BP.Coeffs[0])
		acc.p1.mulAdd(0, v, evk.AP.Coeffs[0])
	})
	ks0, ks1 := ev.finishKeySwitch(accs, level)

	// out.C0 = φ(c0) + ks0, with φ(c0) gathered in NTT domain.
	out := &Ciphertext{C0: ks0, C1: ks1, Scale: ct.Scale, Level: level}
	ring.ForEachLimb(level+1, n, func(j int) {
		qj := rq.Moduli[j].Q
		src := ct.C0.Coeffs[j]
		o := out.C0.Coeffs[j]
		for t := 0; t < n; t++ {
			o[t] = ring.AddMod(src[idx[t]], o[t], qj)
		}
	})
	stageDone("rotate_hoisted", mark)
	return out, nil
}

// gather sets dst[t] = src[idx[t]]: an automorphism applied to one NTT-domain
// limb.
func gather(dst, src []uint64, idx []int32) {
	src = src[:len(dst)]
	for t, i := range idx[:len(dst)] {
		dst[t] = src[i]
	}
}
