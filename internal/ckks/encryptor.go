package ckks

import (
	"sync"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// Encryptor encrypts plaintexts under a public key. It is safe for
// concurrent use: the only mutable state is the seeded sampler, whose
// draws are serialized under a mutex (so concurrent callers interleave the
// random stream but each still obtains a valid, fresh encryption; serial
// callers get the exact seeded sequence).
type Encryptor struct {
	params *Parameters
	pk     *PublicKey

	mu      sync.Mutex
	sampler *ring.Sampler // guarded by mu
}

// NewEncryptor returns a deterministic (seeded) encryptor: it draws from the
// stream of ring.SeedKey(seed) under its own label.
func NewEncryptor(params *Parameters, pk *PublicKey, seed int64) *Encryptor {
	key := ring.StreamKey(ring.SeedKey(seed), encryptorLabel, 0)
	return &Encryptor{params: params, pk: pk, sampler: ring.NewKeyedSampler(params.RingQ(), key)}
}

// Encrypt produces (v·b + e0 + m, v·a + e1) at the plaintext's level.
func (enc *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	rq := enc.params.RingQ()
	level := pt.Level

	// Draw all randomness under the lock, in the same order as the original
	// serial path; the (deterministic) arithmetic happens outside it.
	eSigned := make([]int64, 2*rq.N) // e0, then e1
	enc.mu.Lock()
	vSigned := enc.sampler.TernarySigned(4)
	enc.sampler.GaussianSigned(eSigned)
	enc.mu.Unlock()

	v := rq.SetSignedCoeffs(vSigned, level)
	rq.NTT(v)
	e0 := rq.SetSignedCoeffs(eSigned[:rq.N], level)
	e1 := rq.SetSignedCoeffs(eSigned[rq.N:], level)
	rq.NTT(e0)
	rq.NTT(e1)

	c0 := rq.NewPoly(level)
	c1 := rq.NewPoly(level)
	rq.MulCoeffs(v, enc.pk.B.Truncate(level), c0)
	rq.Add(c0, e0, c0)
	rq.Add(c0, pt.Value, c0)
	rq.MulCoeffs(v, enc.pk.A.Truncate(level), c1)
	rq.Add(c1, e1, c1)

	return &Ciphertext{C0: c0, C1: c1, Scale: pt.Scale, Level: level}
}

// Decryptor recovers plaintexts with the secret key. It is stateless apart
// from the key and safe for concurrent use.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes c0 + c1·s at the ciphertext level.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	rq := dec.params.RingQ()
	m := rq.NewPoly(ct.Level)
	rq.MulCoeffs(ct.C1, dec.sk.Q.Truncate(ct.Level), m)
	rq.Add(m, ct.C0, m)
	return &Plaintext{Value: m, Scale: ct.Scale, Level: ct.Level}
}
