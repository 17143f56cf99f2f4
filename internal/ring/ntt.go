package ring

import "math/bits"

// The transforms use Harvey's lazy butterflies: between stages coefficients
// are only kept below 4q (forward) or 2q (inverse), the Shoup twiddle
// products are left in [0, 2q), and the one correction every value needs is
// a branch-free fold. The last stage folds its outputs back to canonical
// residues in [0, q), so callers see exactly the values a fully reduced
// transform produces. The bounds rest on 4q < 2^63 (see MaxModulusBits).
// Each pass over the coefficients runs two stages (radix 4) on blocks of
// four strided values, with the butterflies, twiddles and bounds of one
// stage per pass, so the residues are the same in half the passes. An odd
// log N leaves each transform's last stage on its own.

// fold returns x − m if x ≥ m, else x, for x, m < 2^63: the subtraction's
// sign bit selects whether m is added back.
func fold(x, m uint64) uint64 {
	d := x - m
	return d + m&uint64(int64(d)>>63)
}

// mulShoupLazy returns a·w mod q in [0, 2q) for any a, given
// wShoup = ⌊w·2^64/q⌋ and w < q.
func mulShoupLazy(a, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	return a*w - hi*q
}

// ct is the forward (Cooley–Tukey) butterfly: x, y in [0, 4q) give
// x + w·y and x − w·y, both in [0, 4q).
func ct(x, y, w, wShoup, q uint64) (uint64, uint64) {
	u, v := fold(x, 2*q), mulShoupLazy(y, w, wShoup, q)
	return u + v, u - v + 2*q
}

// gs is the inverse (Gentleman–Sande) butterfly: x, y in [0, 2q) give
// x + y and (x − y)·w, both in [0, 2q).
func gs(x, y, w, wShoup, q uint64) (uint64, uint64) {
	return fold(x+y, 2*q), mulShoupLazy(x-y+2*q, w, wShoup, q)
}

// scaleFold returns x·w mod q in [0, q): the inverse's last butterfly
// multiplies its two outputs by N⁻¹ and by N⁻¹ times its one twiddle.
func scaleFold(x, w, wShoup, q uint64) uint64 {
	return fold(mulShoupLazy(x, w, wShoup, q), q)
}

// quarters splits b[:4h] into four runs of h, resliced to one length so that
// a loop ranging over the first drops the others' bounds checks.
func quarters(b []uint64, h int) (x0, x1, x2, x3 []uint64) {
	x0 = b[:h]
	return x0, b[h : 2*h][:len(x0)], b[2*h : 3*h][:len(x0)], b[3*h : 4*h][:len(x0)]
}

// NTT performs an in-place forward negacyclic number-theoretic transform of a
// modulo m.Q. Input is in standard coefficient order with residues in [0, q);
// output is in bit-reversed "evaluation" order suitable for pointwise
// multiplication, also in [0, q). The transform follows the Cooley–Tukey
// butterflies with merged powers of psi (Longa–Naehrig), so no separate
// pre-multiplication by psi^i is needed.
func (m *Modulus) NTT(a []uint64) {
	n := m.N
	if n == 1 {
		return
	}
	q := m.Q
	a = a[:n]
	psi, psiShoup := m.psiFwd, m.psiFwdShoup
	// The stage with k groups has half-width n/2k and twiddles psi[k:2k].
	// Passes run stages (k, 2k) on blocks of t = n/k values until the last
	// two stages, or the last one when log N is odd, are left.
	last := n >> 2
	if bits.TrailingZeros(uint(n))&1 == 1 {
		last = n >> 1
	}
	t := n
	for k := 1; k < last; k <<= 2 {
		h := t >> 2
		for i := range k {
			w, ws := psi[k+i], psiShoup[k+i]
			w0, ws0 := psi[2*k+2*i], psiShoup[2*k+2*i]
			w1, ws1 := psi[2*k+2*i+1], psiShoup[2*k+2*i+1]
			x0, x1, x2, x3 := quarters(a[i*t:i*t+t], h)
			for j := range x0 {
				y0, y2 := ct(x0[j], x2[j], w, ws, q)
				y1, y3 := ct(x1[j], x3[j], w, ws, q)
				x0[j], x1[j] = ct(y0, y1, w0, ws0, q)
				x2[j], x3[j] = ct(y2, y3, w1, ws1, q)
			}
		}
		t >>= 2
	}
	if last == n>>1 {
		// The last stage alone (adjacent pairs), folding [0, 4q) to [0, q).
		for i := range last {
			p := a[2*i : 2*i+2]
			y0, y1 := ct(p[0], p[1], psi[last+i], psiShoup[last+i], q)
			p[0], p[1] = fold(fold(y0, 2*q), q), fold(fold(y1, 2*q), q)
		}
		return
	}
	// The last two stages on blocks of four, folding to [0, q).
	w1, ws1 := psi[last:2*last], psiShoup[last:2*last]
	w2, ws2 := psi[2*last:4*last], psiShoup[2*last:4*last]
	for i := range last {
		p, v, vs := a[4*i:4*i+4], w2[2*i:2*i+2], ws2[2*i:2*i+2]
		y0, y2 := ct(p[0], p[2], w1[i], ws1[i], q)
		y1, y3 := ct(p[1], p[3], w1[i], ws1[i], q)
		y0, y1 = ct(y0, y1, v[0], vs[0], q)
		y2, y3 = ct(y2, y3, v[1], vs[1], q)
		p[0], p[1] = fold(fold(y0, 2*q), q), fold(fold(y1, 2*q), q)
		p[2], p[3] = fold(fold(y2, 2*q), q), fold(fold(y3, 2*q), q)
	}
}

// INTT performs an in-place inverse negacyclic NTT (Gentleman–Sande
// butterflies with merged inverse powers of psi), returning coefficients in
// standard order, already divided by N, with residues in [0, q). The input
// must be in [0, q).
func (m *Modulus) INTT(a []uint64) {
	n := m.N
	if n == 1 {
		return
	}
	q := m.Q
	a = a[:n]
	psi, psiShoup := m.psiInvRev, m.psiInvShoup
	// Stages run k = n/2 groups down to 1, the last one scaling by N⁻¹.
	// Passes run stages (k, k/2) on blocks of 4t, t = n/2k, until the last
	// two stages, or the last one when log N is odd, are left.
	nInv, nInvS, nPsi, nPsiS := m.nInv, m.nInvShoup, m.nInvPsi, m.nInvPsiShoup
	stop := 2
	if bits.TrailingZeros(uint(n))&1 == 1 {
		stop = 1
	}
	k := n >> 1
	if k > stop {
		// The first two stages on blocks of four.
		for i := range n >> 2 {
			p := a[4*i : 4*i+4]
			y0, y1 := gs(p[0], p[1], psi[k+2*i], psiShoup[k+2*i], q)
			y2, y3 := gs(p[2], p[3], psi[k+2*i+1], psiShoup[k+2*i+1], q)
			p[0], p[2] = gs(y0, y2, psi[k/2+i], psiShoup[k/2+i], q)
			p[1], p[3] = gs(y1, y3, psi[k/2+i], psiShoup[k/2+i], q)
		}
		k >>= 2
	}
	for t := n / (2 * k); k > stop; k, t = k>>2, t<<2 {
		for i := range k >> 1 {
			wa, wsa := psi[k+2*i], psiShoup[k+2*i]
			wb, wsb := psi[k+2*i+1], psiShoup[k+2*i+1]
			w, ws := psi[k/2+i], psiShoup[k/2+i]
			x0, x1, x2, x3 := quarters(a[4*i*t:4*i*t+4*t], t)
			for j := range x0 {
				y0, y1 := gs(x0[j], x1[j], wa, wsa, q)
				y2, y3 := gs(x2[j], x3[j], wb, wsb, q)
				x0[j], x2[j] = gs(y0, y2, w, ws, q)
				x1[j], x3[j] = gs(y1, y3, w, ws, q)
			}
		}
	}
	if stop == 1 {
		// The last stage alone.
		x, y := a[:n>>1], a[n>>1:]
		y = y[:len(x)]
		for j := range x {
			u, v := x[j], y[j]
			x[j], y[j] = scaleFold(u+v, nInv, nInvS, q), scaleFold(u-v+2*q, nPsi, nPsiS, q)
		}
		return
	}
	// The last two stages on the four quarters.
	x0, x1, x2, x3 := quarters(a, n>>2)
	wa, wsa, wb, wsb := psi[2], psiShoup[2], psi[3], psiShoup[3]
	for j := range x0 {
		y0, y1 := gs(x0[j], x1[j], wa, wsa, q)
		y2, y3 := gs(x2[j], x3[j], wb, wsb, q)
		x0[j], x2[j] = scaleFold(y0+y2, nInv, nInvS, q), scaleFold(y0-y2+2*q, nPsi, nPsiS, q)
		x1[j], x3[j] = scaleFold(y1+y3, nInv, nInvS, q), scaleFold(y1-y3+2*q, nPsi, nPsiS, q)
	}
}
