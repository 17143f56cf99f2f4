package ckks

import (
	"fmt"
	"math"

	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// Binary serialization for the objects that cross the network in a private
// inference deployment: the client ships an encrypted input and its
// evaluation keys; the server returns an encrypted result. Parameters
// serialize as their literal — prime generation is deterministic, so both
// sides derive identical chains. The codec and the magic registry live in
// internal/wire. A decoder checks only what the bytes alone can show (counts,
// shapes that agree with each other, a sane scale); whether the shapes and
// residues fit a parameter set is Validate's job (validate.go).
//
// Layouts (little-endian; poly = u32 limbs | u32 N | limbs×N u64,
// key = 32-byte seed | u32 digits | per digit: poly BQ | poly BP):
//
//	ParametersLiteral:  magic | u32 LogN | u32 LogScale | u32 nq | nq×u32 LogQ | u32 np | np×u32 LogP
//	Ciphertext:         magic | u32 level | f64 scale | poly C0 | poly C1
//	RelinearizationKey: magic | key
//	RotationKeySet:     magic | u32 n | n×(u32 step | key), ascending | u32 conj | [key]
//
// A key's public a_d are not on the wire: its seed expands to them
// (expandA), and only the parameters' moduli make that possible, so a decoded
// key holds its b_d alone until EvaluationKeySet.Validate expands the rest.
// The key formats took new magics twice: when the gadget went from one digit
// per chain prime to grouped digits (same layout, new meaning), and when the
// a_d gave way to the seed. A payload from either side of a change fails at
// the front door.
const (
	ciphertextMagic  = uint32(0x5AF7CC09)
	paramsMagic      = uint32(0x5AF7CC0E)
	rotationKeyMagic = uint32(0x5AF7CC12)
	relinKeyMagic    = uint32(0x5AF7CC13)

	maxLimbs        = 64 // chain length; bounds special primes and gadget digits too
	maxDegree       = 1 << 20
	maxRotationKeys = 1 << 16
)

// polySize and keySize are exact wire sizes: ciphertexts and key sets are
// the payloads big enough that growing the Writer would copy megabytes, so
// their marshalers allocate once.
func polySize(p *ring.Poly) int { return 8 + 8*len(p.Coeffs)*len(p.Coeffs[0]) }

// keySize is the wire size of a key whose digits digits each hold a BQ of
// qLimbs and a BP of pLimbs limbs of degree n. Every key generated or decoded
// has one shape for all its digits.
func keySize(digits, qLimbs, pLimbs, n int) int {
	return len(SwitchingKey{}.Seed) + 4 + digits*(16+8*(qLimbs+pLimbs)*n)
}

func (key *SwitchingKey) wireSize() int {
	if len(key.Digits) == 0 {
		return keySize(0, 0, 0, 0)
	}
	d := &key.Digits[0]
	return keySize(len(key.Digits), len(d.BQ.Coeffs), len(d.BP.Coeffs), len(d.BQ.Coeffs[0]))
}

// KeyWireSize is the bytes one switching key under p — the relinearization
// key or any rotation key — occupies on the wire.
func (p *Parameters) KeyWireSize() int {
	return keySize(p.Digits(p.MaxLevel()), p.MaxLevel()+1, len(p.P()), p.N())
}

// relinKeySize and rotationKeysSize are the exact wire sizes of a
// relinearization key and of a rotation-key set of n keys (conjugation key
// not counted) whose every key takes keyBytes.
func relinKeySize(keyBytes int) int        { return 4 + keyBytes }
func rotationKeysSize(n, keyBytes int) int { return 12 + n*(4+keyBytes) } // magic, count, conjugation flag

// RelinKeyWireSize is the marshaled size of a relinearization key under p.
func (p *Parameters) RelinKeyWireSize() int { return relinKeySize(p.KeyWireSize()) }

// RotationKeysWireSize is the marshaled size of a rotation-key set with keys
// for n steps, and no conjugation key, under p.
func (p *Parameters) RotationKeysWireSize(n int) int { return rotationKeysSize(n, p.KeyWireSize()) }

// EvaluationKeysSize is the coefficient bytes an EvaluationKeySet of a
// relinearization key and n rotation keys holds under p once Validate has
// expanded its a_d: each digit of each key keeps b_d and a_d over Q and P.
func (p *Parameters) EvaluationKeysSize(n int) int {
	return (1 + n) * p.Digits(p.MaxLevel()) * 2 * (p.MaxLevel() + 1 + len(p.P())) * p.N() * 8
}

func writePoly(w *wire.Writer, p *ring.Poly) {
	w.U32(uint32(len(p.Coeffs)))
	w.U32(uint32(len(p.Coeffs[0])))
	for _, limb := range p.Coeffs {
		w.U64s(limb)
	}
}

// readPoly returns nil once r has failed.
func readPoly(r *wire.Reader) *ring.Poly {
	limbs, n := r.Count(maxLimbs), r.Count(maxDegree)
	if limbs == 0 || n == 0 {
		r.Fail("implausible poly header (%d limbs, N=%d)", limbs, n)
	}
	p := &ring.Poly{Coeffs: make([][]uint64, limbs)}
	for i := range p.Coeffs {
		p.Coeffs[i] = r.U64s(n)
	}
	if r.Err() != nil {
		return nil
	}
	return p
}

// sameShape reports whether two decoded polys agree on limb count and ring
// degree. Decoders demand it of every pair of components the evaluator
// indexes in lockstep: a payload mixing rings must fail at the boundary, not
// corrupt (or panic) later arithmetic.
func sameShape(a, b *ring.Poly) bool {
	return len(a.Coeffs) == len(b.Coeffs) && len(a.Coeffs[0]) == len(b.Coeffs[0])
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (lit ParametersLiteral) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U32(paramsMagic)
	w.U32(uint32(lit.LogN))
	w.U32(uint32(lit.LogScale))
	for _, logs := range [][]int{lit.LogQ, lit.LogP} {
		w.U32(uint32(len(logs)))
		for _, b := range logs {
			w.U32(uint32(b))
		}
	}
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (lit *ParametersLiteral) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: parameter literal", data)
	r.Magic(paramsMagic)
	readLogs := func() []int {
		logs := make([]int, r.Count(maxLimbs))
		for i := range logs {
			logs[i] = int(r.U32())
		}
		return logs
	}
	out := ParametersLiteral{LogN: int(r.U32()), LogScale: int(r.U32())}
	out.LogQ = readLogs()
	out.LogP = readLogs()
	if len(out.LogQ) == 0 || len(out.LogP) == 0 {
		r.Fail("empty modulus chain or no special prime")
	}
	if err := r.Done(); err != nil {
		return err
	}
	*lit = out
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	w := make(wire.Writer, 0, 16+polySize(ct.C0)+polySize(ct.C1))
	w.U32(ciphertextMagic)
	w.U32(uint32(ct.Level))
	w.F64(ct.Scale)
	writePoly(&w, ct.C0)
	writePoly(&w, ct.C1)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: ciphertext", data)
	r.Magic(ciphertextMagic)
	out := Ciphertext{Level: int(r.U32()), Scale: r.F64()}
	out.C0, out.C1 = readPoly(r), readPoly(r)
	if err := r.Done(); err != nil {
		return err
	}
	if math.IsNaN(out.Scale) || math.IsInf(out.Scale, 0) || out.Scale <= 0 {
		return fmt.Errorf("ckks: implausible ciphertext scale %g", out.Scale)
	}
	if out.C0.Level() != out.Level || !sameShape(out.C0, out.C1) {
		return fmt.Errorf("ckks: ciphertext level %d does not match its components (%d/%d limbs, N=%d/%d)",
			out.Level, len(out.C0.Coeffs), len(out.C1.Coeffs), len(out.C0.Coeffs[0]), len(out.C1.Coeffs[0]))
	}
	*ct = out
	return nil
}

// writeKey serializes a switching key: its seed and each digit's b_d.
func writeKey(w *wire.Writer, key *SwitchingKey) {
	w.Bytes(key.Seed[:])
	w.U32(uint32(len(key.Digits)))
	for i := range key.Digits {
		writePoly(w, key.Digits[i].BQ)
		writePoly(w, key.Digits[i].BP)
	}
}

// readKey deserializes a switching key's seed and b_d; it returns nil once r
// has failed. The key-switch loop indexes every digit in lockstep, so each BQ
// (and each BP) must match the first digit's, and all of them one ring degree.
// Validate expands a_d, in the shape of these b_d, once the parameters are
// known.
func readKey(r *wire.Reader) *SwitchingKey {
	key := new(SwitchingKey)
	copy(key.Seed[:], r.Bytes(len(key.Seed)))
	key.Digits = make([]EvaluationKeyDigit, r.Count(maxLimbs))
	if len(key.Digits) == 0 {
		r.Fail("evaluation key has no gadget digits")
	}
	for i := range key.Digits {
		d := &key.Digits[i]
		d.BQ, d.BP = readPoly(r), readPoly(r)
		if r.Err() != nil {
			return nil
		}
		q, p := key.Digits[0].BQ, key.Digits[0].BP
		if !sameShape(d.BQ, q) || !sameShape(d.BP, p) || len(p.Coeffs[0]) != len(q.Coeffs[0]) {
			r.Fail("digit %d disagrees in shape with the rest of its key", i)
		}
	}
	if r.Err() != nil {
		return nil
	}
	return key
}

// MarshalBinary implements encoding.BinaryMarshaler: AppendBinary into a
// buffer of the exact size.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	return rlk.AppendBinary(make([]byte, 0, relinKeySize(rlk.wireSize())))
}

// AppendBinary appends the key's wire form to b, the way the registration
// frame embeds it without an intermediate copy.
func (rlk *RelinearizationKey) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U32(relinKeyMagic)
	writeKey(&w, &rlk.SwitchingKey)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The key holds no a_d
// until EvaluationKeySet.Validate expands them.
func (rlk *RelinearizationKey) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: relinearization key", data)
	r.Magic(relinKeyMagic)
	key := readKey(r)
	if err := r.Done(); err != nil {
		return err
	}
	rlk.SwitchingKey = *key
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler: AppendBinary into a
// buffer of the exact size. Every key of a set, generated or decoded, has
// one shape, so any one of them sizes the rest.
func (rks *RotationKeySet) MarshalBinary() ([]byte, error) {
	keyBytes := 0
	for _, key := range rks.keys {
		keyBytes = key.wireSize()
		break
	}
	size := rotationKeysSize(len(rks.keys), keyBytes)
	if rks.conjugation != nil {
		size += rks.conjugation.wireSize()
	}
	return rks.AppendBinary(make([]byte, 0, size))
}

// AppendBinary appends the set's wire form to b. Steps are written in sorted
// order so equal sets serialize identically.
func (rks *RotationKeySet) AppendBinary(b []byte) ([]byte, error) {
	steps := rks.Steps()
	w := wire.Writer(b)
	w.U32(rotationKeyMagic)
	w.U32(uint32(len(steps)))
	for _, step := range steps {
		w.U32(uint32(step))
		writeKey(&w, rks.keys[step])
	}
	if rks.conjugation == nil {
		w.U32(0)
	} else {
		w.U32(1)
		writeKey(&w, rks.conjugation)
	}
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Keys must agree on
// one shape across the whole set (readKey only checks within a key): a set
// mixing ring degrees or chain lengths would panic the key-switch loop
// instead of erroring here. No key holds its a_d until
// EvaluationKeySet.Validate expands them.
func (rks *RotationKeySet) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: rotation keys", data)
	r.Magic(rotationKeyMagic)
	var ref *SwitchingKey
	next := func() *SwitchingKey {
		key := readKey(r)
		if ref == nil {
			ref = key
		}
		if r.Err() == nil && (len(key.Digits) != len(ref.Digits) ||
			!sameShape(key.Digits[0].BQ, ref.Digits[0].BQ) || !sameShape(key.Digits[0].BP, ref.Digits[0].BP)) {
			r.Fail("rotation keys disagree on digit count, limb counts or ring degree")
		}
		return key
	}
	keys := map[int]*SwitchingKey{}
	for n := r.Count(maxRotationKeys); n > 0 && r.Err() == nil; n-- {
		step := int(r.U32())
		if _, dup := keys[step]; dup || step == 0 || step > maxDegree {
			r.Fail("rotation step %d is zero, implausible or repeated", step)
		}
		keys[step] = next()
	}
	var conjugation *SwitchingKey
	switch conj := r.U32(); conj {
	case 0:
	case 1:
		conjugation = next()
	default:
		r.Fail("implausible conjugation flag %d", conj)
	}
	if err := r.Done(); err != nil {
		return err
	}
	rks.keys, rks.conjugation = keys, conjugation
	return nil
}
