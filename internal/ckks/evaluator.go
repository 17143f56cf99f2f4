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
	out := &Ciphertext{C0: rq.NewPoly(level), C1: rq.NewPoly(level), Scale: a.Scale, Level: level}
	rq.Add(a.C0, b.C0, out.C0)
	rq.Add(a.C1, b.C1, out.C1)
	return out, nil
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.checkScales(a.Scale, b.Scale); err != nil {
		return nil, err
	}
	a, b, level := ev.alignLevels(a, b)
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.NewPoly(level), C1: rq.NewPoly(level), Scale: a.Scale, Level: level}
	rq.Sub(a.C0, b.C0, out.C0)
	rq.Sub(a.C1, b.C1, out.C1)
	return out, nil
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.NewPoly(a.Level), C1: rq.NewPoly(a.Level), Scale: a.Scale, Level: a.Level}
	rq.Neg(a.C0, out.C0)
	rq.Neg(a.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (scales must match).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.checkScales(ct.Scale, pt.Scale); err != nil {
		return nil, err
	}
	level := min(ct.Level, pt.Level)
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.NewPoly(level), C1: ct.C1.Truncate(level).CopyNew(), Scale: ct.Scale, Level: level}
	rq.Add(ct.C0.Truncate(level), pt.Value.Truncate(level), out.C0)
	return out, nil
}

// MulPlain returns ct ⊙ pt; the result scale is the product of scales and the
// caller normally rescales afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	level := min(ct.Level, pt.Level)
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.NewPoly(level), C1: rq.NewPoly(level), Scale: ct.Scale * pt.Scale, Level: level}
	rq.MulCoeffs(ct.C0.Truncate(level), pt.Value.Truncate(level), out.C0)
	rq.MulCoeffs(ct.C1.Truncate(level), pt.Value.Truncate(level), out.C1)
	return out
}

// MulRelin multiplies two ciphertexts and relinearizes the degree-2 term.
// The result scale is the product of the operand scales; callers normally
// Rescale next.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.rlk == nil {
		return nil, fmt.Errorf("ckks: evaluator has no relinearization key")
	}
	a, b, level := ev.alignLevels(a, b)
	rq := ev.params.RingQ()

	d0 := rq.NewPoly(level)
	d1 := rq.NewPoly(level)
	d2 := rq.GetPolyRaw(level) // fully overwritten by MulCoeffs below
	rq.MulCoeffs(a.C0, b.C0, d0)
	rq.MulCoeffs(a.C0, b.C1, d1)
	rq.MulCoeffsThenAdd(a.C1, b.C0, d1)
	rq.MulCoeffs(a.C1, b.C1, d2)

	e0, e1 := ev.keySwitch(d2, ev.rlk.Digits, level)
	rq.Add(d0, e0, d0)
	rq.Add(d1, e1, d1)
	rq.PutPoly(d2)
	rq.PutPoly(e0)
	rq.PutPoly(e1)
	return &Ciphertext{C0: d0, C1: d1, Scale: a.Scale * b.Scale, Level: level}, nil
}

// acc128 is a polynomial's worth of unreduced 128-bit sums: the high and low
// words live in two pooled polys (see ring.MulAcc128).
type acc128 struct {
	hi, lo *ring.Poly
}

func getAcc128(r *ring.Ring, level int) acc128 {
	return acc128{hi: r.GetPoly(level), lo: r.GetPoly(level)}
}

// mulAdd adds x ⊙ y into limb j of the accumulator.
func (a acc128) mulAdd(j int, x, y []uint64) {
	ring.MulAcc128(a.hi.Coeffs[j], a.lo.Coeffs[j], x, y)
}

// put returns both polys to the pool.
func (a acc128) put(r *ring.Ring) {
	r.PutPoly(a.hi)
	r.PutPoly(a.lo)
}

// merge adds b into a and recycles b.
func (a acc128) merge(r *ring.Ring, b acc128) {
	for j := range a.lo.Coeffs {
		ring.AddAcc128(a.hi.Coeffs[j], a.lo.Coeffs[j], b.hi.Coeffs[j], b.lo.Coeffs[j])
	}
	b.put(r)
}

// reduce performs the accumulator's one modular reduction, in place in its
// low-word poly, which it returns; the high-word poly goes back to the pool.
//
//hennlint:transfers-ownership the returned poly is pooled; the caller must PutPoly it
func (a acc128) reduce(r *ring.Ring) *ring.Poly {
	for j, m := range r.Moduli[:len(a.lo.Coeffs)] {
		m.ReduceAcc128(a.hi.Coeffs[j], a.lo.Coeffs[j], a.lo.Coeffs[j])
	}
	r.PutPoly(a.hi)
	return a.lo
}

// ksAcc is one worker's key-switch accumulator set: the (c0, c1) partial
// sums over Q and over the special prime P, unreduced.
type ksAcc struct {
	q0, q1 acc128
	p0, p1 acc128
}

// newKSAccs draws zeroed accumulator sets for `workers` workers.
func (ev *Evaluator) newKSAccs(workers, level int) []ksAcc {
	rq := ev.params.RingQ()
	rp := ev.params.RingP()
	accs := make([]ksAcc, workers)
	for w := range accs {
		accs[w] = ksAcc{
			q0: getAcc128(rq, level), q1: getAcc128(rq, level),
			p0: getAcc128(rp, 0), p1: getAcc128(rp, 0),
		}
	}
	return accs
}

// finishKeySwitch merges the workers' partial sums, reduces them — the one
// reduction a key switch's multiply-accumulate performs per coefficient —
// and divides by P, returning the (c0, c1) correction over Q. 128-bit
// addition is exact and commutative, so the result does not depend on the
// digit-to-worker schedule: key-switch output stays bit-deterministic under
// any fan-out width.
//
//hennlint:transfers-ownership both returned polys are pooled; the caller must PutPoly them
func (ev *Evaluator) finishKeySwitch(accs []ksAcc, level int) (*ring.Poly, *ring.Poly) {
	rq := ev.params.RingQ()
	rp := ev.params.RingP()
	acc := accs[0]
	for _, a := range accs[1:] {
		acc.q0.merge(rq, a.q0)
		acc.q1.merge(rq, a.q1)
		acc.p0.merge(rp, a.p0)
		acc.p1.merge(rp, a.p1)
	}
	q0, q1 := acc.q0.reduce(rq), acc.q1.reduce(rq)
	p0, p1 := acc.p0.reduce(rp), acc.p1.reduce(rp)
	ev.modDownByP(q0, p0, level)
	ev.modDownByP(q1, p1, level)
	rp.PutPoly(p0)
	rp.PutPoly(p1)
	return q0, q1
}

// keySwitch applies a gadget key (relinearization or rotation) to an
// NTT-domain ciphertext component d2 at the given level, returning the
// (c0, c1) correction over Q.
//
// Algorithm: decompose d2 into per-prime RNS digits u_i = [d2]_{q_i}
// (coefficient domain, single-limb integers), extend each digit to every
// limb of Q_level and to P, and accumulate Σ u_i ⊙ evk_i over Q and P.
// Because the gadget g_i ≡ δ_ij (mod q_j), Σ u_i·g_i ≡ d2 (mod Q_level),
// and the accumulated value equals P·d2·s² + small error over QP. Dividing
// by P (exact centered mod-down, P is a single prime) yields d2·s² + tiny
// error over Q.
//
// The products are summed unreduced in 128-bit accumulators (a chain has at
// most ring.MaxAcc128Terms digits) and reduced once, in finishKeySwitch.
//
// Digits are independent, so the INTT/extend/NTT/multiply-accumulate chain
// fans across them with per-worker accumulators merged at the end — the
// serial digit walk was the longest dependency chain left in a rotation.
// The digit fan holds the ring's fan-out gate, so per-limb work inside each
// worker runs serially instead of double-fanning; when the digit fan itself
// falls back to serial (one digit, or another fan already in flight), the
// inner loop is the plain single-worker path.
//
//hennlint:transfers-ownership both returned polys are pooled; the caller must PutPoly them
func (ev *Evaluator) keySwitch(d2 *ring.Poly, digits []EvaluationKeyDigit, level int) (*ring.Poly, *ring.Poly) {
	mark := stageClock()
	rq := ev.params.RingQ()
	rp := ev.params.RingP()
	n := ev.params.N()
	p := ev.params.P()

	var accs []ksAcc
	ring.ForEachWorker(level+1, (level+2)*n, func(workers int) {
		accs = ev.newKSAccs(workers, level)
	}, func(w, i int) {
		acc := &accs[w]
		digit := rq.GetScratch()
		defer rq.PutScratch(digit)
		ext := rq.GetScratch()
		defer rq.PutScratch(ext)
		copy(digit, d2.Coeffs[i])
		rq.Moduli[i].INTT(digit)
		evk := &digits[i]
		qi := ev.params.Q()[i]

		for j := 0; j <= level; j++ {
			qj := rq.Moduli[j].Q
			if qi <= qj {
				copy(ext, digit)
			} else {
				for k := 0; k < n; k++ {
					ext[k] = digit[k] % qj
				}
			}
			rq.Moduli[j].NTT(ext)
			acc.q0.mulAdd(j, ext, evk.BQ.Coeffs[j])
			acc.q1.mulAdd(j, ext, evk.AQ.Coeffs[j])
		}
		if qi <= p {
			copy(ext, digit)
		} else {
			for k := 0; k < n; k++ {
				ext[k] = digit[k] % p
			}
		}
		rp.Moduli[0].NTT(ext)
		acc.p0.mulAdd(0, ext, evk.BP.Coeffs[0])
		acc.p1.mulAdd(0, ext, evk.AP.Coeffs[0])
	})
	ks0, ks1 := ev.finishKeySwitch(accs, level)
	stageDone("key_switch", mark)
	return ks0, ks1
}

// modDownByP divides accQ (NTT domain over Q_level) by P in place, consuming
// accP (NTT domain over P): accQ <- (accQ - lift([acc]_P)) / P per limb.
func (ev *Evaluator) modDownByP(accQ, accP *ring.Poly, level int) {
	rq := ev.params.RingQ()
	rp := ev.params.RingP()
	n := ev.params.N()
	p := ev.params.P()
	half := p >> 1

	lift := rq.GetScratch()
	copy(lift, accP.Coeffs[0])
	rp.Moduli[0].INTT(lift)

	ring.ForEachLimb(level+1, n, func(j int) {
		ext := rq.GetScratch()
		defer rq.PutScratch(ext)
		qj := rq.Moduli[j].Q
		for k := 0; k < n; k++ {
			c := lift[k]
			if c > half {
				// centered: c - p (negative) ≡ qj - (p - c) mod qj
				ext[k] = qj - (p-c)%qj
				if ext[k] == qj {
					ext[k] = 0
				}
			} else {
				ext[k] = c % qj
			}
		}
		rq.Moduli[j].NTT(ext)
		pinv := ev.params.pInvModQ[j]
		limb := accQ.Coeffs[j]
		for k := 0; k < n; k++ {
			limb[k] = ring.MulMod(ring.SubMod(limb[k], ext[k], qj), pinv, qj)
		}
	})
	rq.PutScratch(lift)
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
	ql := ev.params.Q()[level]
	out := &Ciphertext{
		C0:    rq.NewPoly(level - 1),
		C1:    rq.NewPoly(level - 1),
		Scale: ct.Scale / float64(ql),
		Level: level - 1,
	}
	ev.divideByTopPrime(ct.C0, out.C0, level)
	ev.divideByTopPrime(ct.C1, out.C1, level)
	stageDone("rescale", mark)
	return out, nil
}

func (ev *Evaluator) divideByTopPrime(in, out *ring.Poly, level int) {
	rq := ev.params.RingQ()
	n := ev.params.N()
	ql := ev.params.Q()[level]
	half := ql >> 1

	lift := rq.GetScratch()
	copy(lift, in.Coeffs[level])
	rq.Moduli[level].INTT(lift)

	ring.ForEachLimb(level, n, func(j int) {
		ext := rq.GetScratch()
		defer rq.PutScratch(ext)
		qj := rq.Moduli[j].Q
		for k := 0; k < n; k++ {
			c := lift[k]
			if c > half {
				ext[k] = qj - (ql-c)%qj
				if ext[k] == qj {
					ext[k] = 0
				}
			} else {
				ext[k] = c % qj
			}
		}
		rq.Moduli[j].NTT(ext)
		qinv := ev.params.qInvMod[level][j]
		src := in.Coeffs[j]
		dst := out.Coeffs[j]
		for k := 0; k < n; k++ {
			dst[k] = ring.MulMod(ring.SubMod(src[k], ext[k], qj), qinv, qj)
		}
	})
	rq.PutScratch(lift)
}

// MulRelinRescale is the common fused sequence multiply → relinearize →
// rescale.
func (ev *Evaluator) MulRelinRescale(a, b *Ciphertext) (*Ciphertext, error) {
	ct, err := ev.MulRelin(a, b)
	if err != nil {
		return nil, err
	}
	return ev.Rescale(ct)
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
	out := &Ciphertext{C0: rq.NewPoly(ct.Level), C1: rq.NewPoly(ct.Level), Scale: ct.Scale * constScale, Level: ct.Level}
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
	out, err := ev.MulConst(ct, c, constScale)
	if err != nil {
		return nil, err
	}
	out, err = ev.Rescale(out)
	if err != nil {
		return nil, err
	}
	// The float bookkeeping above is exact by construction; pin it to avoid
	// drift accumulating across deep circuits.
	out.Scale = targetScale
	return out, nil
}

// AddConst adds a real constant (encoded at the ciphertext's own scale).
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	scal, err := ev.scalarRNS(c, ct.Scale, ct.Level)
	if err != nil {
		return nil, err
	}
	rq := ev.params.RingQ()
	out := &Ciphertext{C0: rq.NewPoly(ct.Level), C1: ct.C1.CopyNew(), Scale: ct.Scale, Level: ct.Level}
	rq.AddScalar(ct.C0, scal, out.C0)
	return out, nil
}
