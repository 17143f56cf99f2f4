package ring

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testModulus(t *testing.T, n int) *Modulus {
	t.Helper()
	q, err := GenPrime(45, n, nil)
	if err != nil {
		t.Fatalf("GenPrime: %v", err)
	}
	m, err := NewModulus(q, n)
	if err != nil {
		t.Fatalf("NewModulus: %v", err)
	}
	return m
}

func TestGenPrimesProperties(t *testing.T) {
	avoid := map[uint64]bool{}
	primes, err := GenPrimes(40, 1024, 8, avoid)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, q := range primes {
		if seen[q] {
			t.Fatalf("duplicate prime %d", q)
		}
		seen[q] = true
		if q%(2*1024) != 1 {
			t.Fatalf("prime %d not ≡ 1 mod 2N", q)
		}
		if !new(big.Int).SetUint64(q).ProbablyPrime(30) {
			t.Fatalf("%d is not prime", q)
		}
	}
}

func TestGenPrimesAvoid(t *testing.T) {
	avoid := map[uint64]bool{}
	p1, err := GenPrimes(40, 512, 3, avoid)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GenPrimes(40, 512, 3, avoid)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p1 {
		for _, b := range p2 {
			if a == b {
				t.Fatalf("avoid set not honoured: %d reused", a)
			}
		}
	}
}

func TestGenPrimesRejectsBadSizes(t *testing.T) {
	if _, err := GenPrimes(10, 512, 1, nil); err == nil {
		t.Fatal("expected error for too-small bit size")
	}
	if _, err := GenPrimes(63, 512, 1, nil); err == nil {
		t.Fatal("expected error for too-large bit size")
	}
}

func TestModularArithmetic(t *testing.T) {
	const q = uint64(0x1fffffffffe00001) // 61-bit prime-shaped value for range checks
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(a, b uint64) bool {
		a, b = a%q, b%q
		s := AddMod(a, b, q)
		d := SubMod(s, b, q)
		return d == a && s < q
	}, cfg); err != nil {
		t.Errorf("add/sub roundtrip: %v", err)
	}
	if err := quick.Check(func(a, b uint64) bool {
		a, b = a%q, b%q
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(q))
		return MulMod(a, b, q) == want.Uint64()
	}, cfg); err != nil {
		t.Errorf("MulMod vs big.Int: %v", err)
	}
}

func TestMulModShoupMatchesMulMod(t *testing.T) {
	q, err := GenPrime(50, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a := uniformUint64(rng, q)
		w := uniformUint64(rng, q)
		ws := shoupPrecomp(w, q)
		if got, want := MulModShoup(a, w, ws, q), MulMod(a, w, q); got != want {
			t.Fatalf("Shoup mismatch a=%d w=%d: got %d want %d", a, w, got, want)
		}
	}
}

func TestPowInvMod(t *testing.T) {
	q, _ := GenPrime(45, 256, nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := 1 + uniformUint64(rng, q-1)
		inv := InvMod(a, q)
		if MulMod(a, inv, q) != 1 {
			t.Fatalf("InvMod(%d) incorrect", a)
		}
	}
	if PowMod(3, 0, q) != 1 {
		t.Fatal("a^0 != 1")
	}
}

func TestPrimitiveRootOrder(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		m := testModulus(t, n)
		psi := m.psi
		if PowMod(psi, uint64(n), m.Q) != m.Q-1 {
			t.Fatalf("psi^N != -1 for n=%d", n)
		}
		if PowMod(psi, uint64(2*n), m.Q) != 1 {
			t.Fatalf("psi^2N != 1 for n=%d", n)
		}
	}
}

func TestNTTRoundtrip(t *testing.T) {
	m := testModulus(t, 512)
	rng := rand.New(rand.NewSource(11))
	a := make([]uint64, m.N)
	for i := range a {
		a[i] = uniformUint64(rng, m.Q)
	}
	orig := append([]uint64(nil), a...)
	m.NTT(a)
	m.INTT(a)
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("roundtrip mismatch at %d: got %d want %d", i, a[i], orig[i])
		}
	}
}

// naive negacyclic product c = a*b mod (X^N+1, q)
func negacyclicMul(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	c := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := MulMod(a[i], b[j], q)
			k := i + j
			if k < n {
				c[k] = AddMod(c[k], p, q)
			} else {
				c[k-n] = SubMod(c[k-n], p, q)
			}
		}
	}
	return c
}

func TestNTTNegacyclicMultiplication(t *testing.T) {
	m := testModulus(t, 128)
	rng := rand.New(rand.NewSource(5))
	a := make([]uint64, m.N)
	b := make([]uint64, m.N)
	for i := range a {
		a[i] = uniformUint64(rng, m.Q)
		b[i] = uniformUint64(rng, m.Q)
	}
	want := negacyclicMul(a, b, m.Q)

	ahat := append([]uint64(nil), a...)
	bhat := append([]uint64(nil), b...)
	m.NTT(ahat)
	m.NTT(bhat)
	for i := range ahat {
		ahat[i] = MulMod(ahat[i], bhat[i], m.Q)
	}
	m.INTT(ahat)
	for i := range ahat {
		if ahat[i] != want[i] {
			t.Fatalf("negacyclic product mismatch at %d", i)
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	m := testModulus(t, 256)
	rng := rand.New(rand.NewSource(9))
	a := make([]uint64, m.N)
	b := make([]uint64, m.N)
	sum := make([]uint64, m.N)
	for i := range a {
		a[i] = uniformUint64(rng, m.Q)
		b[i] = uniformUint64(rng, m.Q)
		sum[i] = AddMod(a[i], b[i], m.Q)
	}
	m.NTT(a)
	m.NTT(b)
	m.NTT(sum)
	for i := range a {
		if AddMod(a[i], b[i], m.Q) != sum[i] {
			t.Fatalf("NTT not linear at %d", i)
		}
	}
}

func newTestRing(t *testing.T, n, levels int) *Ring {
	t.Helper()
	primes, err := GenPrimes(45, n, levels+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPolyAddSubNeg(t *testing.T) {
	r := newTestRing(t, 64, 2)
	s := NewSampler(r, 42)
	a := s.Uniform(2)
	b := s.Uniform(2)
	sum := r.NewPoly(2)
	r.Add(a, b, sum)
	neg := r.NewPoly(2)
	r.Neg(b, neg)
	diff := r.NewPoly(2)
	r.Add(sum, neg, diff)
	if !diff.Equal(a) {
		t.Fatal("(a+b)+(-b) != a")
	}
	r.Neg(a, neg)
	zero := r.NewPoly(2)
	r.Add(a, neg, zero)
	want := r.NewPoly(2)
	if !zero.Equal(want) {
		t.Fatal("a + (-a) != 0")
	}
}

func TestPolyMulCoeffsThenAdd(t *testing.T) {
	r := newTestRing(t, 64, 1)
	s := NewSampler(r, 43)
	a := s.Uniform(1)
	b := s.Uniform(1)
	prod := r.NewPoly(1)
	r.MulCoeffs(a, b, prod)
	acc := r.NewPoly(1)
	r.MulCoeffsThenAdd(a, b, acc)
	r.MulCoeffsThenAdd(a, b, acc)
	double := r.NewPoly(1)
	r.Add(prod, prod, double)
	if !acc.Equal(double) {
		t.Fatal("MulCoeffsThenAdd accumulation incorrect")
	}
}

// TestTernaryAndGaussianRanges: the samplers' supports and first moments.
// Ternary coefficients lie in {-1, 0, 1}, nonzero with the density asked
// for (2/3 for the secret, 1/2 for the encryption mask) and balanced in
// sign. Gaussian coefficients satisfy |e| ≤ 19 (6σ, rounded), are balanced
// in sign and have the variance of a rounded normal, σ² + 1/12. Every moment
// must fall within 5 standard errors of its expectation over 2^16 draws.
func TestTernaryAndGaussianRanges(t *testing.T) {
	r := newTestRing(t, 256, 0)
	s := NewSampler(r, 44)
	const draws = 1 << 16
	within := func(what string, got, want, se float64) {
		t.Helper()
		if math.Abs(got-want) > 5*se {
			t.Errorf("%s %.5f, want %.5f ± 5·%.5f", what, got, want, se)
		}
	}
	for _, m := range []uint64{3, 4} {
		var nonzero, sum float64
		for i := 0; i < draws/r.N; i++ {
			for _, c := range s.TernarySigned(m) {
				if c < -1 || c > 1 {
					t.Fatalf("ternary coefficient %d out of {-1,0,1}", c)
				}
				nonzero += float64(c * c)
				sum += float64(c)
			}
		}
		p := 2 / float64(m)
		within(fmt.Sprintf("m=%d: ternary density", m), nonzero/draws, p, math.Sqrt(p*(1-p)/draws))
		within(fmt.Sprintf("m=%d: ternary mean", m), sum/draws, 0, math.Sqrt(p/draws))
	}
	vals := make([]int64, draws)
	s.GaussianSigned(vals)
	var m1, m2, m4 float64
	for _, v := range vals {
		if v > 19 || v < -19 {
			t.Fatalf("gaussian sample %d outside |e| <= 19", v)
		}
		m1 += float64(v)
		m2 += float64(v * v)
		m4 += float64(v * v * v * v)
	}
	m1, m2, m4 = m1/draws, m2/draws, m4/draws
	within("gaussian mean", m1, 0, math.Sqrt(m2/draws))
	within("gaussian variance", m2, 3.2*3.2+1.0/12, math.Sqrt((m4-m2*m2)/draws))
	// The polynomial door embeds the same distribution into every limb.
	lifted := r.CenteredLimb(s.Gaussian(0), 0)
	for _, v := range lifted {
		if v > 19 || v < -19 {
			t.Fatalf("gaussian coefficient %d outside |e| <= 19", v)
		}
	}
}

// CenteredLimb lifts limb i of p (coefficient domain) to centered
// representatives in (-q/2, q/2].
func (r *Ring) CenteredLimb(p *Poly, i int) []int64 {
	q := r.Moduli[i].Q
	half := q >> 1
	out := make([]int64, len(p.Coeffs[i]))
	for j, c := range p.Coeffs[i] {
		if c > half {
			out[j] = -int64(q - c)
		} else {
			out[j] = int64(c)
		}
	}
	return out
}

func TestCenteredLimbAndSetSigned(t *testing.T) {
	r := newTestRing(t, 64, 1)
	vals := make([]int64, r.N)
	for i := range vals {
		vals[i] = int64(i - r.N/2)
	}
	p := r.SetSignedCoeffs(vals, 1)
	got := r.CenteredLimb(p, 0)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("centered lift mismatch at %d: got %d want %d", i, got[i], vals[i])
		}
	}
	got1 := r.CenteredLimb(p, 1)
	for i := range vals {
		if got1[i] != vals[i] {
			t.Fatalf("limb-1 centered lift mismatch at %d", i)
		}
	}
}

func TestPolyCopyTruncate(t *testing.T) {
	r := newTestRing(t, 64, 3)
	s := NewSampler(r, 45)
	a := s.Uniform(3)
	cp := a.CopyNew()
	if !cp.Equal(a) {
		t.Fatal("copy differs")
	}
	cp.Coeffs[0][0]++
	if cp.Equal(a) {
		t.Fatal("copy shares storage")
	}
	tr := a.Truncate(1)
	if tr.Level() != 1 {
		t.Fatalf("truncate level = %d, want 1", tr.Level())
	}
	tr.Coeffs[0][1] = 12345 % r.Moduli[0].Q
	if a.Coeffs[0][1] != tr.Coeffs[0][1] {
		t.Fatal("truncate should share storage")
	}
}

// uniformUint64 draws one value uniform in [0, q) from rng: a test input.
func uniformUint64(rng *rand.Rand, q uint64) uint64 {
	max := ^uint64(0) - ^uint64(0)%q
	for {
		if v := rng.Uint64(); v < max {
			return v % q
		}
	}
}

func TestUniformNoModuloBias(t *testing.T) {
	// Statistical smoke test: mean of uniform samples should be ~q/2.
	q := uint64(1 << 30)
	vals := make([]uint64, 20000)
	uniformLimb(NewKeyStream([32]byte{2}), q, vals)
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	mean := sum / float64(len(vals))
	if mean < float64(q)*0.48 || mean > float64(q)*0.52 {
		t.Fatalf("uniform mean %.0f far from q/2=%.0f", mean, float64(q)/2)
	}
}

// wordByWord is the keystream's uniform loop one interface call a word,
// reduced with a hardware divide: the reference fill must match.
type wordByWord struct{ ks *KeyStream }

func (w wordByWord) Uint64() uint64 { return w.ks.Uint64() }

// TestKeyStreamFillMatchesWordByWord: the keystream's chunked uniform loop
// keeps the same words, rejects the same words and reduces them to the same
// residues as drawing one word a call and taking v % q, across chunk
// boundaries and limbs of odd lengths. The moduli include 3·2^62, where a
// quarter of the words are rejected, and 2^30, where the Barrett quotient is
// a shift.
func TestKeyStreamFillMatchesWordByWord(t *testing.T) {
	for _, q := range []uint64{3 << 62, 1 << 30, (1 << 61) - 1, 1<<45 + 1<<17 + 1, 3} {
		var seed [32]byte
		seed[0] = byte(q)
		chunked, ref := NewKeyStream(seed), wordByWord{NewKeyStream(seed)}
		for _, n := range []int{1, 127, 128, 129, 1000, 3} {
			got := make([]uint64, n)
			uniformLimb(chunked, q, got)
			max := ^uint64(0) - ^uint64(0)%q
			for j := range got {
				v := ref.Uint64()
				for v >= max {
					v = ref.Uint64()
				}
				if got[j] != v%q {
					t.Fatalf("q=%d, limb of %d: residue %d is %d, want %d", q, n, j, got[j], v%q)
				}
			}
		}
		if a, b := chunked.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("q=%d: the streams part after the fills (%#x, %#x)", q, a, b)
		}
	}
}

// BenchmarkUniformKeyStream draws one 2^15-coefficient limb of a 45-bit
// prime from a keystream, as expandA and key generation do.
func BenchmarkUniformKeyStream(b *testing.B) {
	dst := make([]uint64, 1<<15)
	ks := NewKeyStream([32]byte{1})
	b.SetBytes(int64(8 * len(dst)))
	for i := 0; i < b.N; i++ {
		uniformLimb(ks, 1<<45+1<<17+1, dst)
	}
}

// TestSamplerReuse: a reused sampler's state only advances — no later draw
// repeats its first, whatever is drawn in between — and a new sampler with
// the same seed replays the whole sequence (lattigo once shipped a uniform
// sampler that reset its state between calls).
func TestSamplerReuse(t *testing.T) {
	r := newTestRing(t, 64, 1)
	draws := func(s *Sampler) []*Poly {
		var out []*Poly
		for i := 0; i < 4; i++ {
			out = append(out, s.Uniform(1), r.SetSignedCoeffs(s.TernarySigned(4), 1), s.Gaussian(1))
		}
		return out
	}
	first := draws(NewSampler(r, 46))
	for i := 3; i < len(first); i += 3 {
		if first[i].Equal(first[0]) {
			t.Fatalf("uniform draw %d repeats the first", i/3)
		}
	}
	for i, p := range draws(NewSampler(r, 46)) {
		if !p.Equal(first[i]) {
			t.Fatalf("draw %d differs between two samplers with one seed", i)
		}
	}
}

// TestSamplerRedacted: a sampler, and the keystream under it, print nothing
// of their state, under any verb.
func TestSamplerRedacted(t *testing.T) {
	s := NewSampler(newTestRing(t, 64, 1), 987654321)
	if out := fmt.Sprintf("%v %+v %#v %v", s, *s, s, []*Sampler{s}); strings.ContainsAny(out, "0123456789") {
		t.Fatalf("sampler state printed: %s", out)
	}
	ks := NewKeyStream([32]byte{9})
	ks.Uint64()
	if out := fmt.Sprintf("%v %+v %#v %x %s", ks, *ks, ks, ks, []*KeyStream{ks}); strings.ContainsAny(out, "0123456789") {
		t.Fatalf("keystream state printed: %s", out)
	}
}
