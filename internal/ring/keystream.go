package ring

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// KeyStream expands a 32-byte key into 64-bit words: the AES-256-CTR
// keystream under that key from a zero IV. It is the one source of
// randomness in this package and in ckks. Anyone holding the key replays the
// stream exactly, which is what lets a switching key ship the seed of its
// uniform polynomials instead of the polynomials (see ckks.SwitchingKey), and
// keeps every secret and error reproducible from its key.
type KeyStream struct {
	ctr cipher.Stream
	buf [keyStreamChunk]byte
	off int
}

// keyStreamChunk is how many bytes of keystream one refill generates.
const keyStreamChunk = 1024

// zeros is what the keystream is XORed onto: the stream itself comes out.
var zeros [keyStreamChunk]byte

// Format redacts the stream under every verb: its buffered bytes are the
// next draws, and a secret's stream printed would replay the secret.
func (KeyStream) Format(f fmt.State, _ rune) { fmt.Fprint(f, "ring.KeyStream{REDACTED}") }

// NewKeyStream starts the keystream of key at its first word.
func NewKeyStream(key [32]byte) *KeyStream {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: every 32-byte key is an AES-256 key
	}
	ks := &KeyStream{ctr: cipher.NewCTR(block, make([]byte, aes.BlockSize))}
	ks.off = len(ks.buf)
	return ks
}

// StreamKey is the one derivation of a stream's key: SHA-256(label ‖ 0 ‖ key
// ‖ tag), with tag little-endian. The NUL ends the label, so distinct
// (label, tag) pairs hash distinct messages and their streams are
// independent; none of them leads back to key.
func StreamKey(key [32]byte, label string, tag uint64) [32]byte {
	msg := make([]byte, 0, len(label)+1+len(key)+8)
	msg = append(append(append(msg, label...), 0), key[:]...)
	return sha256.Sum256(binary.LittleEndian.AppendUint64(msg, tag))
}

// SeedKey widens an int64 seed to a 32-byte key, once, under its own label:
// distinct seeds give distinct keys. A key is only as hard to guess as its
// seed: a small caller-chosen seed is found by search.
func SeedKey(seed int64) [32]byte {
	return StreamKey([32]byte{}, "smartpaf int64 seed", uint64(seed))
}

// Uint64 returns the next word of the stream, little-endian.
func (ks *KeyStream) Uint64() uint64 {
	ks.refill()
	v := binary.LittleEndian.Uint64(ks.buf[ks.off:])
	ks.off += 8
	return v
}

// refill generates the next chunk once every buffered word is used.
func (ks *KeyStream) refill() {
	if ks.off == len(ks.buf) {
		ks.ctr.XORKeyStream(ks.buf[:], zeros[:])
		ks.off = 0
	}
}

// Uniform fills a fresh polynomial at the given level with residues drawn
// from ks under uniformLimb's rejection rule, limb by limb: a uniform element
// of R_{Q_level} by CRT. It is the one uniform loop: Sampler.Uniform and the
// expansion of a seeded key both run it.
func (r *Ring) Uniform(ks *KeyStream, level int) *Poly {
	p := r.NewPoly(level)
	r.UniformTo(ks, p)
	return p
}

// UniformTo is Uniform into p, at p's level: every limb is overwritten, so p
// may come from GetPolyRaw.
func (r *Ring) UniformTo(ks *KeyStream, p *Poly) {
	for i, limb := range p.Coeffs {
		uniformLimb(ks, r.Moduli[i].Q, limb)
	}
}

// uniformLimb fills dst with values uniform in [0, q) without modulo bias:
// a word at or above the largest multiple of q that fits is drawn again. The
// words come off the buffer a chunk at a time, in stream order.
func uniformLimb(ks *KeyStream, q uint64, dst []uint64) {
	u := newUniformMod(q)
	for j := 0; j < len(dst); {
		ks.refill()
		buf := ks.buf[ks.off:]
		n := 0
		for ; n < len(buf) && j < len(dst); n += 8 {
			if v := binary.LittleEndian.Uint64(buf[n:]); v < u.max {
				dst[j] = u.reduce(v)
				j++
			}
		}
		ks.off += n
	}
}

// uniformMod holds uniformLimb's constants for q: the rejection bound max
// and the Barrett constant m = ⌊2^64/q⌋. The quotient estimate ⌊v·m/2^64⌋
// falls short of ⌊v/q⌋ by at most one, so reduce is exact after one
// conditional subtraction, with no hardware divide.
type uniformMod struct{ q, max, m uint64 }

func newUniformMod(q uint64) uniformMod {
	m, _ := bits.Div64(1, 0, q)
	return uniformMod{q: q, max: ^uint64(0) - ^uint64(0)%q, m: m}
}

// reduce returns v mod q.
func (u uniformMod) reduce(v uint64) uint64 {
	quo, _ := bits.Mul64(v, u.m)
	r := v - quo*u.q
	if r >= u.q {
		r -= u.q
	}
	return r
}
