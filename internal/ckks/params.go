// Package ckks implements a from-scratch RNS-CKKS approximate homomorphic
// encryption scheme (Cheon–Kim–Kim–Song) on top of internal/ring.
//
// It supports the full leveled workflow needed to evaluate polynomial
// approximated functions (PAFs) on encrypted tensors: canonical-embedding
// encoding into N/2 complex slots, public-key encryption,
// addition, ciphertext and plaintext multiplication, relinearization and
// slot rotation via a grouped-digit (hybrid) gadget with α special primes,
// rescaling, and exact scale management for constant multiplication.
//
// The implementation favours clarity and reproducibility over raw speed.
// Every secret, error, mask and public a_d is drawn from an AES-256-CTR
// keystream (ring.KeyStream) whose key derives from the caller's int64 seed
// by SHA-256 (ring.SeedKey, ring.StreamKey): distinct seeds give distinct
// keys, but a small seed is found by search; the NOTE on ring.Sampler says
// what a deployment must add.
//
// All scheme objects (Encoder, Encryptor, Decryptor, Evaluator) are safe
// for concurrent use after construction: one set of keys and one evaluator
// serve any number of goroutines, and independent RNS-limb work inside each
// operation is additionally fanned across the internal/ring worker pool.
package ckks

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// ParametersLiteral describes a CKKS parameter set by bit sizes.
// LogQ[0] is the "base" prime consumed by decryption headroom; the remaining
// entries are the rescaling primes (one per multiplicative level). LogP lists
// the special primes used only during key switching; their number α is also
// the width of a gadget digit, so a switching key has ⌈len(LogQ)/α⌉ digits
// and the product of the special primes must cover the largest digit.
type ParametersLiteral struct {
	LogN     int   // ring degree N = 1 << LogN
	LogQ     []int // bit sizes of the ciphertext modulus chain q_0..q_L
	LogP     []int // bit sizes of the key-switching special primes p_0..p_{α-1}
	LogScale int   // default encoding scale Δ = 2^LogScale
}

// Parameters is a compiled parameter set: concrete primes, rings and the
// precomputed constants shared by all scheme objects.
type Parameters struct {
	logN     int
	logScale int
	qi       []uint64 // ciphertext primes q_0..q_L
	pi       []uint64 // special primes p_0..p_{α-1}
	ringQ    *ring.Ring
	ringP    *ring.Ring // degree-N ring over the special primes

	// digitExt[l] raises the gadget digit whose top limb is q_l — limbs
	// ⌊l/α⌋·α..l — to every prime of Q then P. At level l it serves the
	// (possibly short) last digit; a full digit d uses digitExt[(d+1)α−1].
	digitExt []*ring.BasisExtender
	// byTop[l] divides by q_l (Rescale at level l), byP by P (a rotation's
	// key switch) and byPTop[l] by P·q_l (a product at level l, relinearized
	// and rescaled in one division; its primes are P's, then q_l).
	// pModQ[j] = P mod q_j lifts the product onto its key switch's Q·P.
	byTop, byPTop     []divisor
	byP               divisor
	pModQ, pModQShoup []uint64

	// galoisIdx caches the NTT-domain slot permutation of each Galois
	// automorphism (k -> []int32), built lazily on first use. Read-mostly, so
	// a sync.Map keeps Parameters shareable across goroutines.
	galoisIdx sync.Map
}

// divisor is what Evaluator.modDown needs to divide by a modulus D coprime
// to the chain: D's primes, the extender lifting a residue modulo D to q_0,
// q_1, … and D⁻¹ modulo each of them with its Shoup companion.
type divisor struct {
	src           []*ring.Modulus
	ext           *ring.BasisExtender
	inv, invShoup []uint64
}

// NewParameters compiles a literal into concrete primes and rings.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 4 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN=%d out of supported range [4,17]", lit.LogN)
	}
	if len(lit.LogQ) == 0 {
		return nil, fmt.Errorf("ckks: empty modulus chain")
	}
	if len(lit.LogP) == 0 {
		return nil, fmt.Errorf("ckks: no key-switching special prime")
	}
	// A key switch sums one product per gadget digit, and a base extension
	// one per source prime plus a correction, in an unreduced 128-bit
	// accumulator.
	if len(lit.LogQ) > ring.MaxAcc128Terms {
		return nil, fmt.Errorf("ckks: modulus chain of %d limbs exceeds %d", len(lit.LogQ), ring.MaxAcc128Terms)
	}
	// A product divides by P·q_ℓ: a basis of α+1 primes.
	if len(lit.LogP) > ring.MaxAcc128Terms-2 {
		return nil, fmt.Errorf("ckks: %d special primes, at most %d supported (a product divides by them and one chain prime at once)", len(lit.LogP), ring.MaxAcc128Terms-2)
	}
	if lit.LogScale < 20 || lit.LogScale > 60 {
		return nil, fmt.Errorf("ckks: LogScale=%d out of range [20,60]", lit.LogScale)
	}
	n := 1 << lit.LogN
	avoid := map[uint64]bool{}
	qi, err := genPrimes(lit.LogQ, n, avoid)
	if err != nil {
		return nil, err
	}
	pi, err := genPrimes(lit.LogP, n, avoid)
	if err != nil {
		return nil, err
	}

	// Key-switching noise is the digit's magnitude over P: a special modulus
	// smaller than a digit it must absorb leaves every rotation and
	// relinearization carrying noise the scale cannot hide. Equal nominal
	// sizes differ by a hair either way, hence the half-bit tolerance.
	alpha := len(pi)
	logP := logProduct(pi)
	for lo := 0; lo < len(qi); lo += alpha {
		if logD := logProduct(qi[lo:min(lo+alpha, len(qi))]); logP < logD-0.5 {
			return nil, fmt.Errorf("ckks: special modulus of %.0f bits is smaller than the %.0f-bit gadget digit q_%d..q_%d it must absorb",
				logP, logD, lo, min(lo+alpha, len(qi))-1)
		}
	}

	ringQ, err := ring.NewRing(n, qi)
	if err != nil {
		return nil, err
	}
	ringP, err := ring.NewRing(n, pi)
	if err != nil {
		return nil, err
	}
	par := &Parameters{
		logN:     lit.LogN,
		logScale: lit.LogScale,
		qi:       qi,
		pi:       pi,
		ringQ:    ringQ,
		ringP:    ringP,
	}
	if err := par.precompute(); err != nil {
		return nil, err
	}
	return par, nil
}

// genPrimes draws one NTT-friendly prime per requested bit size. Equal sizes
// are drawn from one alternating sequence (keeps products near the power of
// two).
func genPrimes(logs []int, n int, avoid map[uint64]bool) ([]uint64, error) {
	primes := make([]uint64, len(logs))
	bySize := map[int][]int{}
	for i, b := range logs {
		bySize[b] = append(bySize[b], i)
	}
	for b, idxs := range bySize {
		ps, err := ring.GenPrimes(b, n, len(idxs), avoid)
		if err != nil {
			return nil, err
		}
		for k, idx := range idxs {
			primes[idx] = ps[k]
		}
	}
	return primes, nil
}

// logProduct returns log2 of the product of the primes.
func logProduct(primes []uint64) float64 {
	total := 0.0
	for _, q := range primes {
		total += math.Log2(float64(q))
	}
	return total
}

func (p *Parameters) precompute() error {
	L, alpha := len(p.qi), len(p.pi)
	all := append(append([]*ring.Modulus{}, p.ringQ.Moduli...), p.ringP.Moduli...)
	p.digitExt = make([]*ring.BasisExtender, L)
	p.byTop, p.byPTop = make([]divisor, L), make([]divisor, L)
	p.pModQ, p.pModQShoup = make([]uint64, L), make([]uint64, L)
	var err error
	for l, q := range p.ringQ.Moduli {
		if p.digitExt[l], err = ring.NewBasisExtender(p.ringQ.Moduli[l/alpha*alpha:l+1], all); err != nil {
			return err
		}
		if p.byTop[l], err = newDivisor(p.ringQ.Moduli[l:l+1], p.ringQ.Moduli[:l]); err != nil {
			return err
		}
		if p.byPTop[l], err = newDivisor(append(p.ringP.Moduli[:alpha:alpha], q), p.ringQ.Moduli[:l]); err != nil {
			return err
		}
		p.pModQ[l] = productMod(p.ringP.Moduli, q.Q)
		p.pModQShoup[l], _ = bits.Div64(p.pModQ[l], 0, q.Q)
	}
	p.byP, err = newDivisor(p.ringP.Moduli, p.ringQ.Moduli)
	return err
}

// newDivisor prepares division by the product of the src primes modulo each
// dst prime.
func newDivisor(src, dst []*ring.Modulus) (divisor, error) {
	ext, err := ring.NewBasisExtender(src, dst)
	if err != nil {
		return divisor{}, err
	}
	d := divisor{src: src, ext: ext, inv: make([]uint64, len(dst)), invShoup: make([]uint64, len(dst))}
	for j, m := range dst {
		d.inv[j] = ring.InvMod(productMod(src, m.Q), m.Q)
		d.invShoup[j], _ = bits.Div64(d.inv[j], 0, m.Q)
	}
	return d, nil
}

// productMod returns the product of the primes modulo q.
func productMod(primes []*ring.Modulus, q uint64) uint64 {
	prod := uint64(1)
	for _, m := range primes {
		prod = ring.MulMod(prod, m.Q%q, q)
	}
	return prod
}

// Digits returns the number of gadget digits a key switch at the given level
// uses: ⌈(level+1)/α⌉. A switching key holds Digits(MaxLevel()) of them.
func (p *Parameters) Digits(level int) int {
	return (level + len(p.pi)) / len(p.pi)
}

// digit returns the limb range [lo, hi) of gadget digit d at the given level
// and the extender that raises it.
func (p *Parameters) digit(d, level int) (lo, hi int, ext *ring.BasisExtender) {
	alpha := len(p.pi)
	lo, hi = d*alpha, min((d+1)*alpha, level+1)
	return lo, hi, p.digitExt[hi-1]
}

// galoisNTTIndex returns the permutation table applying the automorphism
// X→X^k directly in the NTT domain (fillGaloisNTTIndex), cached per Galois
// element: an evaluator applies the same few automorphisms on every call.
func (p *Parameters) galoisNTTIndex(k int) []int32 {
	if v, ok := p.galoisIdx.Load(k); ok {
		return v.([]int32)
	}
	v, _ := p.galoisIdx.LoadOrStore(k, p.fillGaloisNTTIndex(make([]int32, p.N()), k))
	return v.([]int32)
}

// fillGaloisNTTIndex writes into tab, N entries, and returns the table
// applying X→X^k in the NTT domain: out[t] = in[tab[t]] per limb (gather).
// The bit-reversed negacyclic NTT stores at slot t the evaluation at
// ψ^(2·bitrev(t)+1); the automorphism moves to that slot the evaluation at
// exponent k·(2·bitrev(t)+1) mod 2N, which is again odd (k is odd), so the
// permutation needs no sign fix-ups — the coefficient-domain negations are
// absorbed by the evaluation-point relabeling. Key generation builds each
// rotation key's table once this way, into one table a worker, and caches
// none: on a client the tables would outlive the keys they built.
func (p *Parameters) fillGaloisNTTIndex(tab []int32, k int) []int32 {
	n := p.N()
	logN := p.logN
	mask := 2*n - 1
	for t := range tab[:n] {
		e := 2*int(bitRev(uint64(t), logN)) + 1
		src := (e * k) & mask
		tab[t] = int32(bitRev(uint64((src-1)>>1), logN))
	}
	return tab
}

// bitRev reverses the lowest nbits bits of v.
func bitRev(v uint64, nbits int) uint64 {
	return bits.Reverse64(v) >> (64 - nbits)
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << p.logN }

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// Slots returns the number of complex plaintext slots (N/2).
func (p *Parameters) Slots() int { return 1 << (p.logN - 1) }

// MaxLevel returns the index of the highest usable level (L).
func (p *Parameters) MaxLevel() int { return len(p.qi) - 1 }

// Q returns the ciphertext prime chain.
func (p *Parameters) Q() []uint64 { return p.qi }

// P returns the key-switching special primes; their number is α, the width
// of a gadget digit.
func (p *Parameters) P() []uint64 { return p.pi }

// DefaultScale returns the default encoding scale Δ.
func (p *Parameters) DefaultScale() float64 { return math.Exp2(float64(p.logScale)) }

// RingQ returns the ciphertext-modulus ring.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the ring over the special primes.
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// TotalLogQP returns the summed bit size of the full modulus — the chain
// and every special prime — the figure quoted as "modulus bitwidth" in the
// paper's evaluation setup and the one a security budget is held against.
func (p *Parameters) TotalLogQP() float64 { return logProduct(p.qi) + logProduct(p.pi) }

// heStandard maps LogN to the largest TotalLogQP the homomorphic encryption
// security standard allows at 128-bit security with a ternary secret, the
// table SEAL and Lattigo enforce. The paper's N = 2^15, ≈881-bit setup sits on
// its last row.
var heStandard = [...]int{10: 27, 11: 54, 12: 109, 13: 218, 14: 438, 15: 881}

// MaxLogQP returns that bound for a ring of degree 2^logN, or 0 outside the
// table (2^10..2^15), where no modulus counts as compliant.
func MaxLogQP(logN int) int {
	if logN < 0 || logN >= len(heStandard) {
		return 0
	}
	return heStandard[logN]
}

// Compliant reports whether the full modulus fits its ring's 128-bit bound.
func (p *Parameters) Compliant() bool { return p.TotalLogQP() <= float64(MaxLogQP(p.logN)) }

// ChainLiteral is the one place a parameter literal is shaped: exactly levels
// 45-bit rescaling primes above a 55-bit base prime, scale 2^45, and α 55-bit
// special primes. Each special prime covers a chain prime, so a key switch
// uses ⌈limbs/α⌉ digits: a larger α buys smaller keys and fewer transforms
// per rotation for 55 modulus bits. α is the largest value in [1, ⌈limbs/4⌉]
// whose total fits MaxLogQP of the ring, or ⌈limbs/4⌉ when none does.
//
// logN 0 selects the smallest ring in the standard's table that holds the
// chain at α = 1 and at least slots slots. An explicit logN is taken as
// given, compliant or not, as long as it holds the slots.
func ChainLiteral(logN, levels, slots int) (ParametersLiteral, error) {
	const baseBits, scaleBits = 55, 45
	logQP := func(alpha int) int { return baseBits*(1+alpha) + scaleBits*levels }
	if logN == 0 {
		top := len(heStandard) - 1
		for n := top; n > 0 && logQP(1) <= heStandard[n] && slots <= 1<<(n-1); n-- {
			logN = n
		}
		if logN == 0 {
			return ParametersLiteral{}, fmt.Errorf("ckks: a %d-level chain with %d slots fits no 128-bit ring: %d modulus bits at α = 1, the cap is %d bits at N = 2^%d",
				levels, slots, logQP(1), heStandard[top], top)
		}
	}
	if logN < 1 || slots > 1<<(logN-1) {
		return ParametersLiteral{}, fmt.Errorf("ckks: %d slots exceed the ring of LogN=%d", slots, logN)
	}
	alpha := (levels + 4) / 4 // ⌈limbs/4⌉
	for a := alpha; a >= 1; a-- {
		if logQP(a) <= MaxLogQP(logN) {
			alpha = a
			break
		}
	}
	lit := ParametersLiteral{LogN: logN, LogQ: []int{baseBits}, LogScale: scaleBits}
	for range levels {
		lit.LogQ = append(lit.LogQ, scaleBits)
	}
	for range alpha {
		lit.LogP = append(lit.LogP, baseBits)
	}
	return lit, nil
}
