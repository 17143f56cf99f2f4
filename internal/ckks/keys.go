package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// Plaintext is an encoded message: an NTT-domain ring element plus the scale
// and level bookkeeping shared with ciphertexts.
type Plaintext struct {
	Value *ring.Poly
	Scale float64
	Level int
}

// Ciphertext is a standard two-component CKKS ciphertext (c0, c1) in NTT
// domain, decryptable as c0 + c1·s.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Scale  float64
	Level  int
}

// CopyNew deep-copies the ciphertext.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.CopyNew(), C1: ct.C1.CopyNew(), Scale: ct.Scale, Level: ct.Level}
}

// SecretKey holds s in NTT domain over Q and over the special primes (the P
// limbs are needed to generate switching keys).
type SecretKey struct {
	Q *ring.Poly // limbs q_0..q_L
	P *ring.Poly // limbs p_0..p_{α-1}
}

var errSecretEncode = errors.New("ckks: secret key material is never encoded")

// Format redacts the key under every verb, %#v included: fmt, log and
// error wrapping never print a coefficient.
func (SecretKey) Format(f fmt.State, _ rune) { fmt.Fprint(f, "ckks.SecretKey{REDACTED}") }

// MarshalJSON refuses: the secret key never leaves the process.
func (SecretKey) MarshalJSON() ([]byte, error) { return nil, errSecretEncode }

// GobEncode refuses, like MarshalJSON.
func (SecretKey) GobEncode() ([]byte, error) { return nil, errSecretEncode }

// PublicKey is a standard RLWE encryption key (b, a) with b = -a·s + e.
type PublicKey struct {
	B, A *ring.Poly // NTT domain, limbs q_0..q_L
}

// EvaluationKeyDigit is one gadget digit of a key-switching key: a pair
// (b_d, a_d) over Q·P, held as its Q limbs and its P limbs.
type EvaluationKeyDigit struct {
	BQ, AQ *ring.Poly // limbs q_0..q_L
	BP, AP *ring.Poly // limbs p_0..p_{α-1}
}

// SwitchingKey re-encrypts a ciphertext component from some source key to
// the canonical secret s with the grouped-digit gadget: digit d holds
// (-a_d·s + e_d + P·g_d·source, a_d). Every a_d is public and uniform, drawn
// from the AES-256-CTR keystream of Seed (expandA), so the wire carries the
// seed and the b_d alone.
type SwitchingKey struct {
	Seed   [32]byte
	Digits []EvaluationKeyDigit
}

// RelinearizationKey switches s^2 back to s. Digit d handles the limbs
// q_{dα}..q_{(d+1)α-1} of the operand (the last digit may be short):
// b_d = -a_d·s + e_d + P·g_d·s^2 where the gadget g_d is 1 modulo the
// digit's own primes and 0 modulo every other prime of the chain. That
// holds at every level, so one key serves the entire modulus chain: a lower
// level simply uses fewer digits and a shorter last one.
type RelinearizationKey struct {
	SwitchingKey
}

// relinTag is the relinearization key's tag in publicSeed. Rotation keys are
// tagged with their Galois element, which is odd, so no key shares it.
const relinTag = 0

// KeyGenerator produces the key material. Deterministic given the seed.
type KeyGenerator struct {
	params   *Parameters
	samplerQ *ring.Sampler
	seed     int64
}

// Format redacts the generator's seed and sampler state under every verb.
func (KeyGenerator) Format(f fmt.State, _ rune) { fmt.Fprint(f, "ckks.KeyGenerator{REDACTED}") }

// NewKeyGenerator returns a generator seeded deterministically.
func NewKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{
		params:   params,
		samplerQ: ring.NewSampler(params.RingQ(), seed),
		seed:     seed,
	}
}

// GenSecretKey samples a uniform ternary secret (density 2/3) and stores it
// in NTT domain over both Q and P.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	// Sample the signed coefficients once, then embed into both rings so the
	// Q and P views are the same secret.
	signed := kg.samplerQ.TernarySigned(2.0 / 3.0)
	skQ, skP := kg.embed(signed)
	return &SecretKey{Q: skQ, P: skP}
}

// embed returns the NTT-domain embeddings over Q (full chain) and over P of
// one small integer polynomial.
func (kg *KeyGenerator) embed(signed []int64) (*ring.Poly, *ring.Poly) {
	rq, rp := kg.params.RingQ(), kg.params.RingP()
	inQ := rq.SetSignedCoeffs(signed, len(rq.Moduli)-1)
	inP := rp.SetSignedCoeffs(signed, len(rp.Moduli)-1)
	rq.NTT(inQ)
	rp.NTT(inP)
	return inQ, inP
}

// GenPublicKey returns (b, a) with b = -a·s + e over the full chain.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	L := kg.params.MaxLevel()
	rq := kg.params.RingQ()
	a := kg.samplerQ.Uniform(L)
	e := kg.samplerQ.Gaussian(L)
	rq.NTT(e)
	b := rq.NewPoly(L)
	rq.MulCoeffs(a, sk.Q, b)
	rq.Neg(b, b)
	rq.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// GenRelinearizationKey builds the relinearization key: the switching key
// from s^2 to s.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	rq := kg.params.RingQ()
	s2Q := rq.GetPolyRaw(kg.params.MaxLevel())
	rq.MulCoeffs(sk.Q, sk.Q, s2Q)
	rlk := &RelinearizationKey{*kg.genKey(sk, s2Q, kg.publicSeed(relinTag))}
	rq.PutPoly(s2Q)
	return rlk
}

// publicSeed is the wire seed of the switching key tagged tag: SHA-256 over a
// domain label, the generator seed and the tag. It must be one-way: the
// generator seed leads to the secret key, and so does anything the secret or
// error samplers are seeded with (deriveSeed is invertible).
func (kg *KeyGenerator) publicSeed(tag int64) [32]byte {
	msg := []byte("smartpaf ckks switching-key a_d seed\x00")
	msg = binary.LittleEndian.AppendUint64(msg, uint64(kg.seed))
	msg = binary.LittleEndian.AppendUint64(msg, uint64(tag))
	return sha256.Sum256(msg)
}

// expandA draws every digit's public a_d from key.Seed: one keystream per
// key, the Q limbs and then the P limbs of each digit in turn. Independent
// uniform residues per prime are exactly a uniform element of R_QP (CRT). Key
// generation and EvaluationKeySet.Validate both run it, so a key decoded and
// validated on a server holds the bytes its client generated.
func (p *Parameters) expandA(key *SwitchingKey) {
	ks := ring.NewKeyStream(key.Seed)
	for i := range key.Digits {
		d := &key.Digits[i]
		d.AQ = p.RingQ().Uniform(ks, p.MaxLevel())
		d.AP = p.RingP().Uniform(ks, len(p.P())-1)
	}
}

// genKey builds the switching key with public seed seed from sourceQ (NTT
// domain, the key being switched *from*) to the canonical secret. Only the Q
// embedding of the source is needed: the gadget term P·g_d·source vanishes
// modulo every special prime. The key's a_d and b_d are its only
// allocations: each digit's error is drawn into one signed buffer and
// embedded into pooled polys.
func (kg *KeyGenerator) genKey(sk *SecretKey, sourceQ *ring.Poly, seed [32]byte) *SwitchingKey {
	L := kg.params.MaxLevel()
	rq, rp := kg.params.RingQ(), kg.params.RingP()
	key := &SwitchingKey{Seed: seed, Digits: make([]EvaluationKeyDigit, kg.params.Digits(L))}
	kg.params.expandA(key)
	signed := make([]int64, rq.N)
	for d := range key.Digits {
		dig := &key.Digits[d]
		// The error e_d must be one small integer polynomial, so it is
		// sampled signed once and embedded into both rings.
		kg.samplerQ.GaussianSignedTo(signed)
		eQ, eP := rq.GetPolyRaw(L), rp.GetPolyRaw(len(rp.Moduli)-1)
		rq.SetSignedCoeffsTo(signed, eQ)
		rp.SetSignedCoeffsTo(signed, eP)
		rq.NTT(eQ)
		rp.NTT(eP)

		bQ := rq.NewPoly(L)
		rq.MulCoeffs(dig.AQ, sk.Q, bQ)
		rq.Neg(bQ, bQ)
		rq.Add(bQ, eQ, bQ)
		// Add P·g_d·source: the gadget term lives only on the digit's own
		// limbs, where it is (P mod q_i)·source.
		lo, hi, _ := kg.params.digit(d, L)
		for i := lo; i < hi; i++ {
			qi := kg.params.Q()[i]
			pModQi := productMod(rp.Moduli, qi)
			srcLimb, bLimb := sourceQ.Coeffs[i], bQ.Coeffs[i]
			for j := range bLimb {
				bLimb[j] = ring.AddMod(bLimb[j], ring.MulMod(srcLimb[j], pModQi, qi), qi)
			}
		}

		bP := rp.NewPoly(len(rp.Moduli) - 1)
		rp.MulCoeffs(dig.AP, sk.P, bP)
		rp.Neg(bP, bP)
		rp.Add(bP, eP, bP)
		dig.BQ, dig.BP = bQ, bP
		rq.PutPoly(eQ)
		rp.PutPoly(eP)
	}
	return key
}
