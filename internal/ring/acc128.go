package ring

import "math/bits"

// Lazy 128-bit accumulation. A sum of products Σ a_i·b_i mod q does not
// need a reduction per term: each product of residues is below q² < 2^122,
// so MaxAcc128Terms of them fit one 128-bit word pair, kept as parallel
// hi/lo slices (two ordinary pooled limbs). MulAcc128 adds a term with one
// multiply and an add-with-carry — no divide, no branch — and ReduceAcc128
// performs the single Barrett reduction at the boundary.

// MaxAcc128Terms is how many products of residues one accumulator holds
// before it must be reduced: 64·q² < 2^6·2^122 = 2^128 (see MaxModulusBits).
// An already-reduced residue counts as one term.
const MaxAcc128Terms = 64

// MulAcc128 adds the products a[k]·b[k] into the accumulators (hi[k], lo[k])
// for every k in range of lo. The caller keeps the running term count within
// MaxAcc128Terms.
func MulAcc128(hi, lo, a, b []uint64) {
	hi, a, b = hi[:len(lo)], a[:len(lo)], b[:len(lo)]
	for k := range lo {
		ph, pl := bits.Mul64(a[k], b[k])
		var c uint64
		lo[k], c = bits.Add64(lo[k], pl, 0)
		hi[k] += ph + c
	}
}

// ReduceAcc128 writes the canonical residue of each accumulator (hi[k],
// lo[k]) modulo m.Q to out[k]. out may alias lo.
//
// Barrett reduction with μ = ⌊2^128/q⌋: the quotient estimate ⌊x·μ/2^128⌋
// is ⌊x/q⌋ or one less for any x < 2^128, so x − estimate·q lies in [0, 2q)
// and one conditional subtraction finishes. Only the low word of the
// estimate is needed, because the remainder is known to fit one.
func (m *Modulus) ReduceAcc128(hi, lo, out []uint64) {
	q, muHi, muLo := m.Q, m.muHi, m.muLo
	hi, out = hi[:len(lo)], out[:len(lo)]
	for k := range lo {
		xh, xl := hi[k], lo[k]
		h1, l1 := bits.Mul64(xh, muLo)
		h2, l2 := bits.Mul64(xl, muHi)
		h3, _ := bits.Mul64(xl, muLo)
		s, c1 := bits.Add64(l1, l2, 0)
		_, c2 := bits.Add64(s, h3, 0)
		r := xl - (xh*muHi+h1+h2+c1+c2)*q
		if r >= q {
			r -= q
		}
		out[k] = r
	}
}
