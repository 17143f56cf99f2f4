// Package ckks implements a from-scratch RNS-CKKS approximate homomorphic
// encryption scheme (Cheon–Kim–Kim–Song) on top of internal/ring.
//
// It supports the full leveled workflow needed to evaluate polynomial
// approximated functions (PAFs) on encrypted tensors: canonical-embedding
// encoding into N/2 complex slots, public-key encryption,
// addition, ciphertext and plaintext multiplication, relinearization via a
// per-prime gadget with one special prime, rescaling, and exact scale
// management for constant multiplication.
//
// The implementation favours clarity and reproducibility over raw speed and
// deterministic math/rand sampling over cryptographic randomness; see
// DESIGN.md for the substitution rationale.
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
// entries are the rescaling primes (one per multiplicative level). LogP is
// the special prime used only during key switching.
type ParametersLiteral struct {
	LogN     int   // ring degree N = 1 << LogN
	LogQ     []int // bit sizes of the ciphertext modulus chain q_0..q_L
	LogP     int   // bit size of the key-switching special prime
	LogScale int   // default encoding scale Δ = 2^LogScale
}

// Parameters is a compiled parameter set: concrete primes, rings and the
// precomputed constants shared by all scheme objects.
type Parameters struct {
	logN     int
	logScale int
	qi       []uint64 // ciphertext primes q_0..q_L
	p        uint64   // special prime
	ringQ    *ring.Ring
	ringP    *ring.Ring // degree-N ring with the single special prime

	// qInvMod[l][j] = q_l^{-1} mod q_j (defined for j < l), used by Rescale.
	qInvMod [][]uint64
	// pInvModQ[j] = P^{-1} mod q_j; pModQ[j] = P mod q_j.
	pInvModQ []uint64
	pModQ    []uint64

	// galoisIdx caches the NTT-domain slot permutation of each Galois
	// automorphism (k -> []int32), built lazily on first use. Read-mostly, so
	// a sync.Map keeps Parameters shareable across goroutines.
	galoisIdx sync.Map
}

// NewParameters compiles a literal into concrete primes and rings.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 4 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN=%d out of supported range [4,17]", lit.LogN)
	}
	if len(lit.LogQ) == 0 {
		return nil, fmt.Errorf("ckks: empty modulus chain")
	}
	// A key switch sums one product per limb in an unreduced 128-bit
	// accumulator (Evaluator.keySwitch).
	if len(lit.LogQ) > ring.MaxAcc128Terms {
		return nil, fmt.Errorf("ckks: modulus chain of %d limbs exceeds %d", len(lit.LogQ), ring.MaxAcc128Terms)
	}
	if lit.LogScale < 20 || lit.LogScale > 60 {
		return nil, fmt.Errorf("ckks: LogScale=%d out of range [20,60]", lit.LogScale)
	}
	n := 1 << lit.LogN
	avoid := map[uint64]bool{}

	// Group requested sizes so equal-size primes are drawn from one
	// alternating sequence (keeps products near the power of two).
	qi := make([]uint64, len(lit.LogQ))
	bySize := map[int][]int{}
	for i, b := range lit.LogQ {
		bySize[b] = append(bySize[b], i)
	}
	for b, idxs := range bySize {
		ps, err := ring.GenPrimes(b, n, len(idxs), avoid)
		if err != nil {
			return nil, err
		}
		for k, idx := range idxs {
			qi[idx] = ps[k]
		}
	}
	p, err := ring.GenPrime(lit.LogP, n, avoid)
	if err != nil {
		return nil, err
	}

	ringQ, err := ring.NewRing(n, qi)
	if err != nil {
		return nil, err
	}
	ringP, err := ring.NewRing(n, []uint64{p})
	if err != nil {
		return nil, err
	}

	par := &Parameters{
		logN:     lit.LogN,
		logScale: lit.LogScale,
		qi:       qi,
		p:        p,
		ringQ:    ringQ,
		ringP:    ringP,
	}
	par.precompute()
	return par, nil
}

func (p *Parameters) precompute() {
	L := len(p.qi)
	p.qInvMod = make([][]uint64, L)
	p.pInvModQ = make([]uint64, L)
	p.pModQ = make([]uint64, L)
	for l := 0; l < L; l++ {
		p.qInvMod[l] = make([]uint64, l)
		for j := 0; j < l; j++ {
			p.qInvMod[l][j] = ring.InvMod(p.qi[l]%p.qi[j], p.qi[j])
		}
		p.pModQ[l] = p.p % p.qi[l]
		p.pInvModQ[l] = ring.InvMod(p.pModQ[l], p.qi[l])
	}
}

// galoisNTTIndex returns the permutation table applying the automorphism
// X→X^k directly in the NTT domain: out[t] = in[tab[t]] per limb. The
// bit-reversed negacyclic NTT stores at slot t the evaluation at
// ψ^(2·bitrev(t)+1); the automorphism moves to that slot the evaluation at
// exponent k·(2·bitrev(t)+1) mod 2N, which is again odd (k is odd), so the
// permutation needs no sign fix-ups — the coefficient-domain negations are
// absorbed by the evaluation-point relabeling. Tables are built once per
// Galois element and cached.
func (p *Parameters) galoisNTTIndex(k int) []int32 {
	if v, ok := p.galoisIdx.Load(k); ok {
		return v.([]int32)
	}
	n := p.N()
	logN := p.logN
	mask := 2*n - 1
	tab := make([]int32, n)
	for t := 0; t < n; t++ {
		e := 2*int(bitRev(uint64(t), logN)) + 1
		src := (e * k) & mask
		tab[t] = int32(bitRev(uint64((src-1)>>1), logN))
	}
	v, _ := p.galoisIdx.LoadOrStore(k, tab)
	return v.([]int32)
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

// P returns the key-switching special prime.
func (p *Parameters) P() uint64 { return p.p }

// DefaultScale returns the default encoding scale Δ.
func (p *Parameters) DefaultScale() float64 { return math.Exp2(float64(p.logScale)) }

// RingQ returns the ciphertext-modulus ring.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the single-prime special ring.
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// TotalLogQP returns the summed bit size of the full modulus (chain + P),
// the figure quoted as "modulus bitwidth" in the paper's evaluation setup.
func (p *Parameters) TotalLogQP() float64 {
	total := math.Log2(float64(p.p))
	for _, q := range p.qi {
		total += math.Log2(float64(q))
	}
	return total
}

// Preset parameter sets. PN11–PN13 are development/test sets sized for a
// laptop-class CPU; PN15Paper mirrors the evaluation setup of the paper
// (SEAL CKKS with N=32768 and ≈881-bit modulus).
var (
	// PN11 supports depth 2; used by fast unit tests.
	PN11 = ParametersLiteral{LogN: 11, LogQ: []int{50, 40, 40}, LogP: 55, LogScale: 40}
	// PN12 supports depth 6; enough for the shallow PAFs (f1∘g2).
	PN12 = ParametersLiteral{LogN: 12, LogQ: []int{55, 45, 45, 45, 45, 45, 45}, LogP: 55, LogScale: 45}
	// PN13 supports depth 12; enough for every PAF in Table 2 including the
	// 27-degree minimax baseline plus the ReLU construction and one scaling
	// multiplication.
	PN13 = ParametersLiteral{LogN: 13, LogQ: []int{60, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: 60, LogScale: 45}
	// PN14 is PN13 with a larger ring (closer to a secure configuration).
	PN14 = ParametersLiteral{LogN: 14, LogQ: []int{60, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: 60, LogScale: 45}
	// PN15Paper mirrors the paper's latency setup: N=32768 with a ≈881-bit
	// modulus (60 + 14×54 + 60 = 876 bits; the remaining 5 bits of the
	// paper's 881 come from SEAL's slightly larger special primes).
	PN15Paper = ParametersLiteral{
		LogN: 15,
		LogQ: []int{60, 54, 54, 54, 54, 54, 54, 54, 54, 54, 54, 54, 54, 54, 54},
		LogP: 60, LogScale: 54,
	}
)
