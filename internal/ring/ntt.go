package ring

import "math/bits"

// The transforms use Harvey's lazy butterflies: between stages coefficients
// are only kept below 4q (forward) or 2q (inverse), the Shoup twiddle
// products are left in [0, 2q), and the one correction every value needs is
// a branch-free fold. The last stage folds its outputs back to canonical
// residues in [0, q), so callers see exactly the values a fully reduced
// transform produces. The bounds rest on 4q < 2^63 (see MaxModulusBits).

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
	q, twoQ := m.Q, 2*m.Q
	a = a[:n]
	t := n
	// Every stage but the last: values stay in [0, 4q).
	for stage := 1; stage < n>>1; stage <<= 1 {
		t >>= 1
		psi, psiShoup := m.psiFwd[stage:2*stage], m.psiFwdShoup[stage:2*stage]
		for i, w := range psi {
			wShoup := psiShoup[i]
			x := a[2*i*t : 2*i*t+t]
			y := a[2*i*t+t : 2*i*t+2*t]
			for j := range x {
				u := fold(x[j], twoQ)
				v := mulShoupLazy(y[j], w, wShoup, q)
				x[j] = u + v
				y[j] = u - v + twoQ
			}
		}
	}
	// Last stage (adjacent pairs), folding [0, 4q) down to [0, q).
	psi, psiShoup := m.psiFwd[n>>1:n], m.psiFwdShoup[n>>1:n]
	for i, w := range psi {
		p := a[2*i : 2*i+2]
		u := fold(p[0], twoQ)
		v := mulShoupLazy(p[1], w, psiShoup[i], q)
		p[0] = fold(fold(u+v, twoQ), q)
		p[1] = fold(fold(u-v+twoQ, twoQ), q)
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
	q, twoQ := m.Q, 2*m.Q
	a = a[:n]
	t := 1
	// Every stage but the last: values stay in [0, 2q).
	for stage := n >> 1; stage > 1; stage >>= 1 {
		psi, psiShoup := m.psiInvRev[stage:2*stage], m.psiInvShoup[stage:2*stage]
		for i, w := range psi {
			wShoup := psiShoup[i]
			x := a[2*i*t : 2*i*t+t]
			y := a[2*i*t+t : 2*i*t+2*t]
			for j := range x {
				u, v := x[j], y[j]
				x[j] = fold(u+v, twoQ)
				y[j] = mulShoupLazy(u-v+twoQ, w, wShoup, q)
			}
		}
		t <<= 1
	}
	// Last stage, with N^-1 folded into both twiddles and the outputs
	// folded to [0, q).
	x, y := a[:n>>1], a[n>>1:]
	for j := range x {
		u, v := x[j], y[j]
		x[j] = fold(mulShoupLazy(u+v, m.nInv, m.nInvShoup, q), q)
		y[j] = fold(mulShoupLazy(u-v+twoQ, m.nInvPsi, m.nInvPsiShoup, q), q)
	}
}
