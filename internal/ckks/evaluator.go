package ckks

import (
	"fmt"
	"math"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// scaleTol is the accepted relative mismatch between operand scales in
// additions. Exact scale management (MulConstTargetScale) keeps true
// mismatches below this bound; anything larger is a programming error.
const scaleTol = 1e-6

// Evaluator performs homomorphic arithmetic. It is safe for concurrent use:
// one evaluator can be shared by any number of goroutines operating on
// distinct ciphertexts. It holds no mutable state — parameters and keys are
// read-only after construction, and all scratch is drawn from the ring's
// sync.Pools. The only caveat is setup: attach rotation keys (via
// WithRotationKeys) before the evaluator is shared, not while other
// goroutines are using it.
//
// Independent RNS-limb work inside each operation (NTT batches, key-switch
// digit accumulation, rescale base extension) is additionally fanned across
// the internal/ring worker pool, so a single call also exploits multicore;
// see ring.SetParallelism.
//
// Sums of products — a key switch's Σ digit ⊙ key, a linear layer's
// Σ ciphertext ⊙ diagonal (PlainSum) — are accumulated unreduced in 128 bits
// and reduced once at the end (ring.MulAcc128); every value an operation
// returns is a canonical residue, identical under any fan-out width.
//
// Results come from the ring pool too: Add, AddPlain, MulPlain,
// MulRelinRescale, Rescale, MulConst, MulConstTargetScale, Rotate,
// RotateHoisted and PlainSum.Sum build their result from pooled polys, and
// the fused ops hand their own intermediate back. The caller owns the result
// and may return it with Recycle once it is dead, so a chain of ops reuses a
// few buffers instead of allocating one per step. Recycling is optional: a result never recycled is collected by
// the GC like any other value. No op recycles a ciphertext it was given.
type Evaluator struct {
	params *Parameters
	rlk    *RelinearizationKey
	rks    *RotationKeySet
}

// NewEvaluator returns an evaluator bound to the relinearization key (which
// may be nil if no ciphertext-ciphertext multiplications are performed).
func NewEvaluator(params *Parameters, rlk *RelinearizationKey) *Evaluator {
	return &Evaluator{params: params, rlk: rlk}
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

func (ev *Evaluator) checkScales(a, b float64) error {
	if math.Abs(a-b) > scaleTol*math.Abs(a) {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", a, b)
	}
	return nil
}

// DropLevel returns a view of ct truncated to the given level. Dropping RNS
// limbs is exact and noise-free.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) *Ciphertext {
	if level > ct.Level {
		panic("ckks: DropLevel cannot raise level")
	}
	return &Ciphertext{C0: ct.C0.Truncate(level), C1: ct.C1.Truncate(level), Scale: ct.Scale, Level: level}
}

// alignLevels returns views of a and b at their common (minimum) level.
func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext, int) {
	level := min(a.Level, b.Level)
	return ev.DropLevel(a, level), ev.DropLevel(b, level), level
}

// Add returns a + b (scales must match; result at the common level).
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.checkScales(a.Scale, b.Scale); err != nil {
		return nil, err
	}
	a, b, level := ev.alignLevels(a, b)
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.GetPolyRaw(level), C1: rq.GetPolyRaw(level), Scale: a.Scale, Level: level}
	rq.Add(a.C0, b.C0, out.C0)
	rq.Add(a.C1, b.C1, out.C1)
	return out, nil
}

// AddPlain returns ct + pt (scales must match).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.checkScales(ct.Scale, pt.Scale); err != nil {
		return nil, err
	}
	level := min(ct.Level, pt.Level)
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.GetPolyRaw(level), C1: rq.GetPolyRaw(level), Scale: ct.Scale, Level: level}
	rq.Add(ct.C0, pt.Value, out.C0)
	for j, limb := range out.C1.Coeffs {
		copy(limb, ct.C1.Coeffs[j])
	}
	return out, nil
}

// MulPlain returns ct ⊙ pt; the result scale is the product of scales and the
// caller normally rescales afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	level := min(ct.Level, pt.Level)
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.GetPolyRaw(level), C1: rq.GetPolyRaw(level), Scale: ct.Scale * pt.Scale, Level: level}
	rq.MulCoeffs(ct.C0, pt.Value, out.C0)
	rq.MulCoeffs(ct.C1, pt.Value, out.C1)
	return out
}

// decompose splits c (NTT domain, limbs 0..level) into its gadget digits and
// raises each to every limb of Q_level and to P: digit d is c modulo the
// product D_d of its own primes q_{dα}..q_{(d+1)α-1} (cut at the level),
// centred in [-D_d/2, D_d/2), so it keeps c's residues on its own limbs —
// those are copied, still in NTT domain — and reaches the others by a fast
// basis extension (ring.BasisExtender) and a forward transform each. Because
// the gadget g_d is 1 on the digit's own primes and 0 on the rest,
// Σ_d digit_d·g_d ≡ c (mod Q_level).
//
// The result is the step-independent part of every key switch; c is only
// read.
//
//hennlint:transfers-ownership the decomposition's polys are pooled; the caller must Release it
func (ev *Evaluator) decompose(c *ring.Poly, level int) *HoistedDecomposition {
	params := ev.params
	rq, rp := params.RingQ(), params.RingP()
	n, alpha, digits := params.N(), len(rp.Moduli), params.Digits(level)

	dec := &HoistedDecomposition{
		level: level, rq: rq, rp: rp,
		decQ: make([]*ring.Poly, digits),
		decP: make([]*ring.Poly, digits),
	}
	for d := range dec.decQ {
		// Every limb is fully overwritten below, so raw pool polys suffice.
		dec.decQ[d] = rq.GetPolyRaw(level)
		dec.decP[d] = rp.GetPolyRaw(alpha - 1)
	}

	// Digits are independent: each brings its own limbs to coefficient
	// domain, scaled for the extension, counts the overflow once per
	// coefficient, then reaches every other limb of Q_level (targets 0..level
	// of its extender) and of P (targets after the full chain). The fan over
	// digits holds the ring's gate, so the loops inside run serially; when it
	// falls back to serial itself — one digit, or another fan in flight — the
	// loop over target limbs takes the fan instead.
	ys, vs := rq.GetPolyRaw(level), rq.GetPolyRaw(digits-1)
	limbs := level + 1 + alpha
	ring.ForEachWorker(digits, 2*limbs*n, nil, func(_, d int) {
		lo, hi, ext := params.digit(d, level)
		y, v := ys.Coeffs[lo:hi], vs.Coeffs[d]
		for i := range y {
			copy(y[i], c.Coeffs[lo+i])
			rq.Moduli[lo+i].INTT(y[i])
			ext.Scale(i, y[i])
		}
		ext.Overflow(y, v)
		ring.ForEachWorker(limbs, 2*n, nil, func(_, j int) {
			switch {
			case j >= lo && j < hi:
				copy(dec.decQ[d].Coeffs[j], c.Coeffs[j])
			case j <= level:
				dst := dec.decQ[d].Coeffs[j]
				ext.Extend(j, y, v, dst)
				rq.Moduli[j].NTT(dst)
			default:
				k := j - level - 1
				dst := dec.decP[d].Coeffs[k]
				ext.Extend(len(rq.Moduli)+k, y, v, dst)
				rp.Moduli[k].NTT(dst)
			}
		})
	})
	rq.PutPoly(ys)
	rq.PutPoly(vs)
	return dec
}

// switchKey multiplies a decomposition by a gadget key (relinearization or
// rotation), returning the (c0, c1) correction over Q_level·P, each as its Q
// limbs and its P limbs: Σ_d φ(digit_d) ⊙ evk_d equals P·φ(c)·source + small
// error, and a modDown by P (or, for a product, by P·q_level) is the rounded
// division that leaves φ(c)·source + tiny error.
// φ is the Galois automorphism whose NTT-domain gather table is idx; nil is
// the identity (relinearization). Permuting the raised digits is sound
// because φ is a ring homomorphism modulo every prime: the permuted digits
// are digits of φ(c) of the same magnitude.
//
// Per limb, the products are summed unreduced in 128 bits (a key has at most
// ring.MaxAcc128Terms digits) and reduced once. Limbs are independent, so
// they fan with no state to merge, and every value returned is a canonical
// residue, identical under any fan-out width.
//
//hennlint:transfers-ownership the four returned polys are pooled; the caller must PutPoly them
func (ev *Evaluator) switchKey(dec *HoistedDecomposition, digits []EvaluationKeyDigit, idx []int32) (*ring.Poly, *ring.Poly, *ring.Poly, *ring.Poly) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	n, level, alpha := ev.params.N(), dec.level, len(rp.Moduli)

	q0, q1 := rq.GetPolyRaw(level), rq.GetPolyRaw(level)
	p0, p1 := rp.GetPolyRaw(alpha-1), rp.GetPolyRaw(alpha-1)
	// limb j of a value held as a Q poly and a P poly: Q limbs, then P limbs.
	limb := func(q, p *ring.Poly, j int) []uint64 {
		if j <= level {
			return q.Coeffs[j]
		}
		return p.Coeffs[j-level-1]
	}
	// Per worker: the two accumulators' high words and the gathered digit.
	var scratch [][]uint64
	ring.ForEachWorker(level+1+alpha, 2*len(dec.decQ)*n, func(workers int) {
		scratch = make([][]uint64, 3*workers)
		for i := range scratch {
			scratch[i] = rq.GetScratch()
		}
	}, func(w, j int) {
		m := rq.Moduli[min(j, level)]
		if j > level {
			m = rp.Moduli[j-level-1]
		}
		// The output limbs double as the accumulators' low words.
		lo0, lo1 := limb(q0, p0, j), limb(q1, p1, j)
		hi0, hi1, perm := scratch[3*w], scratch[3*w+1], scratch[3*w+2]
		clear(lo0)
		clear(lo1)
		clear(hi0)
		clear(hi1)
		for d := range dec.decQ {
			x := limb(dec.decQ[d], dec.decP[d], j)
			if idx != nil {
				gather(perm, x, idx)
				x = perm
			}
			ring.MulAcc128(hi0, lo0, x, limb(digits[d].BQ, digits[d].BP, j))
			ring.MulAcc128(hi1, lo1, x, limb(digits[d].AQ, digits[d].AP, j))
		}
		m.ReduceAcc128(hi0, lo0, lo0)
		m.ReduceAcc128(hi1, lo1, lo1)
	})
	for _, buf := range scratch {
		rq.PutScratch(buf)
	}
	return q0, q1, p0, p1
}

// modDownOperand is one polynomial of a modDown: src are the NTT-domain
// residues of the value modulo the divisor's primes (overwritten), in its
// limbs over Q, out where the quotient goes (may be in).
type modDownOperand struct {
	src     [][]uint64
	in, out *ring.Poly
}

// modDown divides by the divisor's modulus D, rounding to nearest: for each
// operand and each limb j < limbs, out_j = (in_j − [x]_D)·D⁻¹ mod q_j, where
// [x]_D in [−D/2, D/2) is read off the src residues and lifted to q_j by the
// divisor's base extension. It is every modulus switch of the scheme:
// Rescale divides by the top chain prime q_ℓ, a rotation's key switch by P,
// and a product, relinearized and rescaled at once, by P·q_ℓ. The two
// operands of a ciphertext go through one fan.
func (ev *Evaluator) modDown(div *divisor, limbs int, ops [2]modDownOperand) {
	rq := ev.params.RingQ()
	n := ev.params.N()
	var vs [2][]uint64
	for c, op := range ops {
		for i, x := range op.src {
			div.src[i].INTT(x)
			div.ext.Scale(i, x)
		}
		vs[c] = rq.GetScratch()
		div.ext.Overflow(op.src, vs[c])
	}
	// A job is a base extension, a transform and a multiply: about two
	// transforms' worth of work, which is what the fan's cost hint counts.
	var lifts [][]uint64
	ring.ForEachWorker(2*limbs, 2*n, func(workers int) {
		lifts = make([][]uint64, workers)
		for w := range lifts {
			lifts[w] = rq.GetScratch()
		}
	}, func(w, job int) {
		c, j := job/limbs, job%limbs
		op, m, lift := ops[c], rq.Moduli[j], lifts[w]
		div.ext.Extend(j, op.src, vs[c], lift)
		m.NTT(lift)
		inv, invShoup, qj := div.inv[j], div.invShoup[j], m.Q
		in, out := op.in.Coeffs[j], op.out.Coeffs[j]
		for k := range out {
			out[k] = ring.MulModShoup(ring.SubMod(in[k], lift[k], qj), inv, invShoup, qj)
		}
	})
	for _, buf := range lifts {
		rq.PutScratch(buf)
	}
	rq.PutScratch(vs[0])
	rq.PutScratch(vs[1])
}

// Rescale divides the ciphertext by its top prime q_level, dropping one
// level and dividing the scale accordingly. This is the CKKS "modulus
// switching" that keeps scales near Δ after multiplications.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	level := ct.Level
	if level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale below level 0")
	}
	mark := stageClock()
	rq := ev.params.RingQ()
	out := &Ciphertext{
		C0:    rq.GetPolyRaw(level - 1), // modDown writes every limb
		C1:    rq.GetPolyRaw(level - 1),
		Scale: ct.Scale / float64(ev.params.Q()[level]),
		Level: level - 1,
	}
	// modDown consumes its source residues; the input's top limbs are copied.
	top0, top1 := rq.GetScratch(), rq.GetScratch()
	copy(top0, ct.C0.Coeffs[level])
	copy(top1, ct.C1.Coeffs[level])
	ev.modDown(&ev.params.byTop[level], level, [2]modDownOperand{
		{src: [][]uint64{top0}, in: ct.C0, out: out.C0},
		{src: [][]uint64{top1}, in: ct.C1, out: out.C1},
	})
	rq.PutScratch(top0)
	rq.PutScratch(top1)
	stageDone("rescale", mark)
	return out, nil
}

// MulRelinRescale multiplies two ciphertexts, relinearizes the degree-2
// term and rescales by the top prime q_ℓ of their level in one division:
// the key switch leaves u ≈ P·d2·s² over Q_ℓ·P, the other terms are lifted
// onto it as P·d0 and P·d1, and one modDown by P·q_ℓ returns
// (d0 + d1·s + d2·s²)/q_ℓ over Q_{ℓ−1}, at scale a.Scale·b.Scale/q_ℓ. One
// rounding instead of two moves a coefficient by at most one from
// relinearizing then rescaling. It is one "key_switch" stage.
func (ev *Evaluator) MulRelinRescale(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.rlk == nil {
		return nil, fmt.Errorf("ckks: evaluator has no relinearization key")
	}
	a, b, level := ev.alignLevels(a, b)
	if level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale below level 0")
	}
	params := ev.params
	rq, rp, alpha := params.RingQ(), params.RingP(), len(params.pi)

	// Every limb of the three is fully overwritten by MulCoeffs below.
	d0, d1, d2 := rq.GetPolyRaw(level), rq.GetPolyRaw(level), rq.GetPolyRaw(level)
	rq.MulCoeffs(a.C0, b.C0, d0)
	rq.MulCoeffs(a.C0, b.C1, d1)
	rq.MulCoeffsThenAdd(a.C1, b.C0, d1)
	rq.MulCoeffs(a.C1, b.C1, d2)

	mark := stageClock()
	dec := ev.decompose(d2, level)
	u0, u1, p0, p1 := ev.switchKey(dec, ev.rlk.Digits, nil)
	dec.Release()
	// P·d vanishes modulo P, so only the Q limbs take it.
	ds, us := [2]*ring.Poly{d0, d1}, [2]*ring.Poly{u0, u1}
	ring.ForEachWorker(2*(level+1), params.N(), nil, func(_, job int) {
		c, j := job&1, job>>1
		q, w, wShoup := rq.Moduli[j].Q, params.pModQ[j], params.pModQShoup[j]
		d, u := ds[c].Coeffs[j], us[c].Coeffs[j]
		for k := range u {
			u[k] = ring.AddMod(u[k], ring.MulModShoup(d[k], w, wShoup, q), q)
		}
	})
	out := &Ciphertext{
		C0:    rq.GetPolyRaw(level - 1), // modDown writes every limb
		C1:    rq.GetPolyRaw(level - 1),
		Scale: a.Scale * b.Scale / float64(params.Q()[level]),
		Level: level - 1,
	}
	// The divisor's primes are P's, then q_ℓ.
	ev.modDown(&params.byPTop[level], level, [2]modDownOperand{
		{src: append(p0.Coeffs[:alpha:alpha], u0.Coeffs[level]), in: u0, out: out.C0},
		{src: append(p1.Coeffs[:alpha:alpha], u1.Coeffs[level]), in: u1, out: out.C1},
	})
	for _, p := range []*ring.Poly{d0, d1, d2, u0, u1} {
		rq.PutPoly(p)
	}
	rp.PutPoly(p0)
	rp.PutPoly(p1)
	stageDone("key_switch", mark)
	return out, nil
}

// scalarRNS encodes round(c*scale) as per-limb residues.
func (ev *Evaluator) scalarRNS(c, scale float64, level int) ([]uint64, error) {
	v := c * scale
	if math.Abs(v) >= math.Exp2(62) {
		return nil, fmt.Errorf("ckks: constant %g at scale %g exceeds 2^62", c, scale)
	}
	k := int64(math.Round(v))
	out := make([]uint64, level+1)
	for j := 0; j <= level; j++ {
		q := ev.params.Q()[j]
		if k >= 0 {
			out[j] = uint64(k) % q
		} else {
			out[j] = q - uint64(-k)%q
		}
	}
	return out, nil
}

// MulConst multiplies by a real constant encoded at constScale; the result
// scale is ct.Scale * constScale (no rescale).
func (ev *Evaluator) MulConst(ct *Ciphertext, c, constScale float64) (*Ciphertext, error) {
	scal, err := ev.scalarRNS(c, constScale, ct.Level)
	if err != nil {
		return nil, err
	}
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.GetPolyRaw(ct.Level), C1: rq.GetPolyRaw(ct.Level), Scale: ct.Scale * constScale, Level: ct.Level}
	rq.MulScalar(ct.C0, scal, out.C0)
	rq.MulScalar(ct.C1, scal, out.C1)
	return out, nil
}

// MulConstTargetScale multiplies ct by constant c and rescales once so that
// the result lands *exactly* at targetScale one level below. This is the
// primitive that keeps every addition in a polynomial evaluation at
// identical scales: constScale = targetScale·q_level / ct.Scale.
func (ev *Evaluator) MulConstTargetScale(ct *Ciphertext, c, targetScale float64) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: no level left for MulConstTargetScale")
	}
	ql := float64(ev.params.Q()[ct.Level])
	constScale := targetScale * ql / ct.Scale
	if constScale < math.Exp2(18) {
		return nil, fmt.Errorf("ckks: required constant scale %g too small for accurate encoding", constScale)
	}
	prod, err := ev.MulConst(ct, c, constScale)
	if err != nil {
		return nil, err
	}
	out, err := ev.Rescale(prod)
	ev.Recycle(prod)
	if err != nil {
		return nil, err
	}
	// The float bookkeeping above is exact by construction; pin it to avoid
	// drift accumulating across deep circuits.
	out.Scale = targetScale
	return out, nil
}
