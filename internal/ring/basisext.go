package ring

import (
	"fmt"
	"math/bits"
)

// BasisExtender carries a polynomial known by its residues modulo a source
// basis s_0..s_{k-1} (product S) to other primes: the fast RNS base
// conversion of Halevi–Polyakov–Shoup. With y_i = x_i·(S/s_i)⁻¹ mod s_i,
//
//	x ≡ Σ y_i·(S/s_i) − v·S,   v = ⌊Σ y_i/s_i + ½⌋,
//
// is the representative of x in [−S/2, S/2), and every term reduces modulo a
// target prime independently. The overflow count v is computed in floating
// point; when x/S lies within 2⁻⁵⁰ of a half-integer it may be off by one,
// which still names a value congruent to x modulo S, the same one on every
// run, a single S further from zero.
//
// The k products and the correction are summed unreduced in 128 bits and
// reduced once (see acc128.go), so a basis holds at most MaxAcc128Terms−1
// primes. An extender is read-only after construction.
type BasisExtender struct {
	src, dst []*Modulus

	hatInv, hatInvShoup []uint64   // (S/s_i)⁻¹ mod s_i
	srcInv              []float64  // 1/s_i
	hat                 [][]uint64 // hat[j][i] = S/s_i mod t_j
	negS                [][]uint64 // negS[j][v] = −v·S mod t_j, v = 0..k
}

// NewBasisExtender prepares the conversion from the src primes to each of the
// dst primes. The src primes must be distinct.
func NewBasisExtender(src, dst []*Modulus) (*BasisExtender, error) {
	k := len(src)
	if k == 0 || k >= MaxAcc128Terms {
		return nil, fmt.Errorf("ring: a basis of %d primes cannot be extended (need 1..%d)", k, MaxAcc128Terms-1)
	}
	be := &BasisExtender{
		src: src, dst: dst,
		hatInv: make([]uint64, k), hatInvShoup: make([]uint64, k), srcInv: make([]float64, k),
		hat: make([][]uint64, len(dst)), negS: make([][]uint64, len(dst)),
	}
	// hatMod(i, q) = Π_{i'≠i} s_i' mod q; i = −1 gives S mod q.
	hatMod := func(i int, q uint64) uint64 {
		prod := uint64(1)
		for i2, s := range src {
			if i2 != i {
				prod = MulMod(prod, s.Q%q, q)
			}
		}
		return prod
	}
	for i, s := range src {
		be.hatInv[i] = InvMod(hatMod(i, s.Q), s.Q)
		be.hatInvShoup[i] = shoupPrecomp(be.hatInv[i], s.Q)
		be.srcInv[i] = 1 / float64(s.Q)
	}
	for j, t := range dst {
		be.hat[j] = make([]uint64, k)
		for i := range src {
			be.hat[j][i] = hatMod(i, t.Q)
		}
		sMod := hatMod(-1, t.Q)
		be.negS[j] = make([]uint64, k+1)
		for v := 1; v <= k; v++ {
			be.negS[j][v] = SubMod(be.negS[j][v-1], sMod, t.Q)
		}
	}
	return be, nil
}

// Scale replaces x, the coefficient-domain residues modulo source prime i,
// by y_i = x·(S/s_i)⁻¹ mod s_i.
func (be *BasisExtender) Scale(i int, x []uint64) {
	w, wShoup, q := be.hatInv[i], be.hatInvShoup[i], be.src[i].Q
	if w == 1 { // a one-prime basis: S/s_0 is the empty product
		return
	}
	for k, c := range x {
		x[k] = MulModShoup(c, w, wShoup, q)
	}
}

// Overflow writes to v[k] the overflow count of coefficient k, given the
// scaled residues ys[i] of every source prime.
func (be *BasisExtender) Overflow(ys [][]uint64, v []uint64) {
	for k := range v {
		sum := 0.5
		for i, y := range ys {
			// The explicit conversion rounds the product before it is added:
			// without it an architecture with a fused multiply-add may round
			// once instead of twice, and outputs would differ across machines.
			sum += float64(float64(int64(y[k])) * be.srcInv[i])
		}
		v[k] = uint64(sum)
	}
}

// Extend writes to out the residues modulo target prime j of the value whose
// scaled source residues are ys and whose overflow counts are v. The result
// is in coefficient domain, canonical.
func (be *BasisExtender) Extend(j int, ys [][]uint64, v, out []uint64) {
	t, hat, negS := be.dst[j], be.hat[j], be.negS[j]
	const block = 256
	var hiB, loB [block]uint64
	for k0 := 0; k0 < len(out); k0 += block {
		o := out[k0:min(k0+block, len(out))]
		hi, lo := hiB[:len(o)], loB[:len(o)]
		for k, c := range v[k0 : k0+len(o)] {
			hi[k], lo[k] = 0, negS[c]
		}
		for i, y := range ys {
			mulScalarAcc128(hi, lo, y[k0:k0+len(o)], hat[i])
		}
		t.ReduceAcc128(hi, lo, o)
	}
}

// mulScalarAcc128 adds the products a[k]·w into the accumulators (hi[k], lo[k]).
func mulScalarAcc128(hi, lo, a []uint64, w uint64) {
	hi, a = hi[:len(lo)], a[:len(lo)]
	for k := range lo {
		ph, pl := bits.Mul64(a[k], w)
		var c uint64
		lo[k], c = bits.Add64(lo[k], pl, 0)
		hi[k] += ph + c
	}
}
