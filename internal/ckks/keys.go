package ckks

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
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

// relinTag is the relinearization key's tag in its stream keys. Rotation keys
// are tagged with their Galois element, which is odd, so no key shares it.
const relinTag = 0

// The labels of the streams derived from a widened seed (ring.StreamKey).
// A generator's secret stream gives the secret key and the public key; each
// switching key has a secret error stream and a public a_d stream, under its
// tag. The a_d stream's key is the seed the key ships, so no other stream
// may share its label. An encryptor draws its masks and errors from its own.
const (
	secretLabel    = "smartpaf ckks secret"
	errorLabel     = "smartpaf ckks switching-key error"
	publicLabel    = "smartpaf ckks switching-key a_d seed"
	encryptorLabel = "smartpaf ckks encryptor"
)

// KeyGenerator produces the key material. Deterministic given the seed.
type KeyGenerator struct {
	params *Parameters
	key    [32]byte      // the widened seed: every stream's key derives from it
	secret *ring.Sampler // the secret stream
}

// Format redacts the generator's key and sampler state under every verb.
func (KeyGenerator) Format(f fmt.State, _ rune) { fmt.Fprint(f, "ckks.KeyGenerator{REDACTED}") }

// NewKeyGenerator returns a generator seeded deterministically: its streams
// derive from ring.SeedKey(seed).
func NewKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	key := ring.SeedKey(seed)
	return &KeyGenerator{
		params: params,
		key:    key,
		secret: ring.NewKeyedSampler(params.RingQ(), ring.StreamKey(key, secretLabel, 0)),
	}
}

// GenSecretKey samples a uniform ternary secret (density 2/3) and stores it
// in NTT domain over both Q and P.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	// Sample the signed coefficients once, then embed into both rings so the
	// Q and P views are the same secret.
	signed := kg.secret.TernarySigned(3)
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
	a := kg.secret.Uniform(L)
	e := kg.secret.Gaussian(L)
	rq.NTT(e)
	b := rq.NewPoly(L)
	rq.MulCoeffs(a, sk.Q, b)
	rq.Neg(b, b)
	rq.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// GenRelinearizationKey builds the relinearization key: the switching key
// from s^2 to s. It is the in-process front-end: the key comes back whole,
// a_d and b_d in fresh polys, for an evaluator in this process.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	s2Q := kg.secretSquared(sk)
	rlk := &RelinearizationKey{*kg.genKey(sk, s2Q, relinTag)}
	kg.params.RingQ().PutPoly(s2Q)
	return rlk
}

// WriteRelinearizationKey is GenRelinearizationKey's streaming front-end: it
// writes the key's packed wire form (RelinearizationKey.AppendWire's bytes
// under the generator's parameters, RelinKeyWireSize of them) to w from one
// buffer of that size and keeps no key. It draws from the streams
// GenRelinearizationKey draws from, so the bytes are the ones writing that
// key gives.
func (kg *KeyGenerator) WriteRelinearizationKey(w io.Writer, sk *SecretKey) error {
	b := borrowKeyBuffer(kg.params.RelinKeyWireSize())
	defer keyScratch.Put(b)
	kw := wire.Writer((*b)[:0])
	kw.U32(relinKeyMagic)
	s2Q := kg.secretSquared(sk)
	kg.appendKey(&kw, sk, s2Q, relinTag)
	kg.params.RingQ().PutPoly(s2Q)
	_, err := w.Write(kw)
	return err
}

// secretSquared returns s^2 in NTT domain over Q, the relinearization key's
// source, in a pooled poly.
//
//hennlint:transfers-ownership the caller owns the returned poly and must PutPoly it
func (kg *KeyGenerator) secretSquared(sk *SecretKey) *ring.Poly {
	rq := kg.params.RingQ()
	s2Q := rq.GetPolyRaw(kg.params.MaxLevel())
	rq.MulCoeffs(sk.Q, sk.Q, s2Q)
	return s2Q
}

// keyStreams returns the streams of the switching key tagged tag: the
// public seed it ships, the keystream of its a_d under that seed, and the
// sampler of its secret errors e_d. Both keys are SHA-256 of the generator's
// key under their own label, so the seed on the wire leads to neither the
// generator's key nor any error.
func (kg *KeyGenerator) keyStreams(tag uint64) (seed [32]byte, ks *ring.KeyStream, errs *ring.Sampler) {
	seed = ring.StreamKey(kg.key, publicLabel, tag)
	return seed, ring.NewKeyStream(seed), ring.NewKeyedSampler(kg.params.RingQ(), ring.StreamKey(kg.key, errorLabel, tag))
}

// drawA draws one digit's public a_d from ks into aQ and aP, its Q limbs and
// then its P limbs. Independent uniform residues per prime are exactly a
// uniform element of R_QP (CRT). Key generation and expandA both draw through
// it, digit after digit from one keystream per key, so a key expanded on a
// server holds the a_d its client generated.
func (p *Parameters) drawA(ks *ring.KeyStream, aQ, aP *ring.Poly) {
	p.RingQ().UniformTo(ks, aQ)
	p.RingP().UniformTo(ks, aP)
}

// expandA draws every digit's public a_d from key.Seed into fresh polys.
// EvaluationKeySet.Validate runs it on each decoded key.
func (p *Parameters) expandA(key *SwitchingKey) {
	ks := ring.NewKeyStream(key.Seed)
	for i := range key.Digits {
		d := &key.Digits[i]
		d.AQ, d.AP = p.RingQ().NewPoly(p.MaxLevel()), p.RingP().NewPoly(len(p.P())-1)
		p.drawA(ks, d.AQ, d.AP)
	}
}

// genDigit is the one place key-generation arithmetic lives: digit d of the
// switching key from sourceQ (NTT domain, the key being switched *from*) to
// the canonical secret. It draws a_d from the key's keystream ks into aQ, aP,
// samples e_d from the key's error sampler errs, and writes
// b_d = -a_d·s + e_d + P·g_d·source into bQ, bP. All four are overwritten, so
// they may come from GetPolyRaw.
// Only the Q embedding of the source is needed: the gadget term vanishes
// modulo every special prime. signed is N coefficients of scratch: e_d must
// be one small integer polynomial, so it is sampled signed once and embedded
// into pooled polys over both rings.
func (kg *KeyGenerator) genDigit(sk *SecretKey, sourceQ *ring.Poly, d int, ks *ring.KeyStream, errs *ring.Sampler, signed []int64, aQ, aP, bQ, bP *ring.Poly) {
	L := kg.params.MaxLevel()
	rq, rp := kg.params.RingQ(), kg.params.RingP()
	kg.params.drawA(ks, aQ, aP)

	errs.GaussianSigned(signed)
	eQ, eP := rq.GetPolyRaw(L), rp.GetPolyRaw(len(rp.Moduli)-1)
	rq.SetSignedCoeffsTo(signed, eQ)
	rp.SetSignedCoeffsTo(signed, eP)
	rq.NTT(eQ)
	rp.NTT(eP)

	rq.MulCoeffs(aQ, sk.Q, bQ)
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

	rp.MulCoeffs(aP, sk.P, bP)
	rp.Neg(bP, bP)
	rp.Add(bP, eP, bP)
	rq.PutPoly(eQ)
	rp.PutPoly(eP)
}

// genKey is genDigit's in-process front-end: the switching key tagged tag
// from sourceQ, every digit's a_d and b_d in fresh polys, which are its only
// large allocations.
func (kg *KeyGenerator) genKey(sk *SecretKey, sourceQ *ring.Poly, tag uint64) *SwitchingKey {
	L, lp := kg.params.MaxLevel(), len(kg.params.P())-1
	rq, rp := kg.params.RingQ(), kg.params.RingP()
	seed, ks, errs := kg.keyStreams(tag)
	key := &SwitchingKey{Seed: seed, Digits: make([]EvaluationKeyDigit, kg.params.Digits(L))}
	signed := make([]int64, rq.N)
	for d := range key.Digits {
		dig := &key.Digits[d]
		dig.AQ, dig.AP, dig.BQ, dig.BP = rq.NewPoly(L), rp.NewPoly(lp), rq.NewPoly(L), rp.NewPoly(lp)
		kg.genDigit(sk, sourceQ, d, ks, errs, signed, dig.AQ, dig.AP, dig.BQ, dig.BP)
	}
	return key
}

// signedScratch lends appendKey genDigit's N coefficients of error scratch,
// so a client streaming its keys allocates them once per core rather than
// once per key.
var signedScratch sync.Pool // of *[]int64

// borrowSigned takes N coefficients of scratch from signedScratch; return
// them with signedScratch.Put.
func borrowSigned(n int) *[]int64 {
	if s, ok := signedScratch.Get().(*[]int64); ok && len(*s) == n {
		return s
	}
	s := make([]int64, n)
	return &s
}

// keyScratch lends the streaming writers their buffers of one key's wire
// bytes (a relinearization key, or a rotation key behind its step: the same
// size), so the relinearization key's buffer serves a rotation key next.
var keyScratch sync.Pool // of *[]byte

// borrowKeyBuffer takes a buffer of size bytes from keyScratch; return it
// with keyScratch.Put.
func borrowKeyBuffer(size int) *[]byte {
	if b, ok := keyScratch.Get().(*[]byte); ok && len(*b) == size {
		return b
	}
	b := make([]byte, size)
	return &b
}

// appendKey is genDigit's append front-end: it writes the switching key
// genKey would return, in writeKey's wire form packed at the generator's
// prime widths, to w. Each digit's a_d, e_d and b_d live in pooled scratch
// that goes back to the pools once the digit's b_d is on the wire, so the
// bytes written are the only memory the key keeps.
func (kg *KeyGenerator) appendKey(w *wire.Writer, sk *SecretKey, sourceQ *ring.Poly, tag uint64) {
	L, lp := kg.params.MaxLevel(), len(kg.params.P())-1
	rq, rp := kg.params.RingQ(), kg.params.RingP()
	digits := kg.params.Digits(L)
	seed, ks, errs := kg.keyStreams(tag)
	w.Bytes(seed[:])
	w.U32(uint32(digits))
	signed := borrowSigned(rq.N)
	defer signedScratch.Put(signed)
	for d := 0; d < digits; d++ {
		aQ, aP, bQ, bP := rq.GetPolyRaw(L), rp.GetPolyRaw(lp), rq.GetPolyRaw(L), rp.GetPolyRaw(lp)
		kg.genDigit(sk, sourceQ, d, ks, errs, *signed, aQ, aP, bQ, bP)
		writePoly(w, bQ, kg.params.Q())
		writePoly(w, bP, kg.params.P())
		rq.PutPoly(aQ)
		rp.PutPoly(aP)
		rq.PutPoly(bQ)
		rp.PutPoly(bP)
	}
}
