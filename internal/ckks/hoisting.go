package ckks

import (
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// Hoisted rotations (Halevi–Shoup). A key switch pays, per call, the gadget
// decomposition of its operand: one INTT per limb, a base extension of every
// digit to every other limb of Q and to P, and one NTT per extended limb.
// The decomposition depends only on the input ciphertext, not on the
// rotation step, so a set of rotations of one ciphertext (the baby-step
// block of a BSGS linear layer) can hoist it: decompose once, then apply
// each step's Galois automorphism to the raised digits as an NTT-domain
// slot permutation (pure data movement, no transforms) inside the
// multiply-accumulate against that step's switching key.
//
// A plain Rotate is the same arithmetic with a decomposition that lives for
// one call, so Rotate(ct, k) and RotateHoisted(DecomposeHoisted(ct), k)
// return identical bytes.

// HoistedDecomposition is the reusable, step-independent part of a rotation:
// the gadget digits of a ciphertext's c1 raised to the full Q·P basis, in NTT
// domain (Evaluator.decompose). It is bound to the ciphertext it was built
// from and is strictly per-call state — callers create it, rotate against
// it (concurrently if they wish; it is read-only once built), and Release
// it. It must never be stored on the Evaluator, which stays stateless and
// shareable.
type HoistedDecomposition struct {
	ct    *Ciphertext // whose c1 was decomposed; nil inside a relinearization
	level int
	rq    *ring.Ring
	rp    *ring.Ring
	decQ  []*ring.Poly // decQ[d]: digit d over limbs 0..level, NTT domain
	decP  []*ring.Poly // decP[d]: digit d over the special primes, NTT domain
}

// DecomposeHoisted performs the gadget decomposition of ct's c1 once, for
// reuse by any number of RotateHoisted calls. It costs what the
// decomposition inside one plain rotation does.
//
//hennlint:transfers-ownership the caller must Release the decomposition
func (ev *Evaluator) DecomposeHoisted(ct *Ciphertext) *HoistedDecomposition {
	mark := stageClock()
	dec := ev.decompose(ct.C1, ct.Level)
	dec.ct = ct
	stageDone("decompose_hoisted", mark)
	return dec
}

// Release returns the decomposition's polynomials to the ring pools. The
// decomposition must not be used afterwards.
func (dec *HoistedDecomposition) Release() {
	for d := range dec.decQ {
		dec.rq.PutPoly(dec.decQ[d])
		dec.rp.PutPoly(dec.decP[d])
	}
	dec.decQ = nil
	dec.decP = nil
}

// RotateHoisted rotates the decomposed ciphertext left by step positions,
// exactly like Rotate on the ciphertext dec was built from, but reusing the
// hoisted decomposition: per call it performs only the automorphism
// permutations, the key multiply-accumulate and the final mod-down — no
// digit extraction, base extension or forward transforms of digits.
func (ev *Evaluator) RotateHoisted(dec *HoistedDecomposition, step int) (*Ciphertext, error) {
	norm := normalizeStep(step, ev.params.Slots())
	if norm == 0 {
		return dec.ct.CopyNew(), nil
	}
	swk, err := ev.rotationKey(norm)
	if err != nil {
		return nil, err
	}
	mark := stageClock()
	out := ev.galois(dec, ev.params.galoisElement(norm), swk)
	stageDone("rotate_hoisted", mark)
	return out, nil
}

// galois computes (φ(c0) + KS(φ(c1)), KS(φ(c1))) for the ciphertext dec was
// built from, where φ is applied to the raised digits and to c0 as an
// NTT-domain slot permutation fused into the consuming loops.
func (ev *Evaluator) galois(dec *HoistedDecomposition, k int, swk *SwitchingKey) *Ciphertext {
	ct := dec.ct
	rq := ev.params.RingQ()
	n := ev.params.N()
	idx := ev.params.galoisNTTIndex(k)

	ks0, ks1, p0, p1 := ev.switchKey(dec, swk.Digits, idx)
	ev.modDown(&ev.params.byP, dec.level+1, [2]modDownOperand{
		{src: p0.Coeffs, in: ks0, out: ks0},
		{src: p1.Coeffs, in: ks1, out: ks1},
	})
	dec.rp.PutPoly(p0)
	dec.rp.PutPoly(p1)
	out := &Ciphertext{C0: ks0, C1: ks1, Scale: ct.Scale, Level: dec.level}
	ring.ForEachWorker(dec.level+1, n, nil, func(_, j int) {
		qj := rq.Moduli[j].Q
		src := ct.C0.Coeffs[j]
		o := out.C0.Coeffs[j]
		for t := 0; t < n; t++ {
			o[t] = ring.AddMod(src[idx[t]], o[t], qj)
		}
	})
	return out
}

// gather sets dst[t] = src[idx[t]]: an automorphism applied to one NTT-domain
// limb.
func gather(dst, src []uint64, idx []int32) {
	src = src[:len(dst)]
	for t, i := range idx[:len(dst)] {
		dst[t] = src[i]
	}
}
