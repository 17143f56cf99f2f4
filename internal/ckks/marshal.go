package ckks

import (
	"fmt"
	"io"
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
// Layouts (little-endian; poly = u32 limbs | u32 N | limbs×u8 w | per limb N
// residues of w bytes; key = 32-byte seed | u32 digits | per digit: poly BQ |
// poly BP):
//
//	ParametersLiteral:  magic | u32 LogN | u32 LogScale | u32 nq | nq×u32 LogQ | u32 np | np×u32 LogP
//	Ciphertext:         magic | u32 level | f64 scale | poly C0 | poly C1
//	RelinearizationKey: magic | key
//	RotationKeySet:     magic | u32 n | n×(u32 step | key), ascending
//
// Each limb carries its own residue width w (3..8 bytes), so decoders need no
// parameters. A writer that holds the Parameters (AppendWire with p) packs limb
// i at its prime's width, ⌈bits.Len64(q_i)/8⌉ bytes — 6 or 7 for the 45- to
// 56-bit primes the chains use — and that packed form is what crosses the
// network; MarshalBinary, which holds none, writes every residue in 8 bytes
// through the same code. The exact sizes (CiphertextWireSize, KeyWireSize,
// RelinKeyWireSize, RotationKeysWireSize) are the packed ones.
//
// A key's public a_d are not on the wire: its seed expands to them
// (expandA), and only the parameters' moduli make that possible, so a decoded
// key holds its b_d alone until EvaluationKeySet.Validate expands the rest.
// The key formats took new magics when the gadget went from one digit per
// chain prime to grouped digits (same layout, new meaning), when the a_d gave
// way to the seed, when — the rotation-key set alone — its trailing optional
// key went, and, with the ciphertext's, when residues went from 8 bytes each
// to per-limb widths. A payload from either side of a change fails at the
// front door.
const (
	ciphertextMagic  = uint32(0x5AF7CC15)
	paramsMagic      = uint32(0x5AF7CC0E)
	rotationKeyMagic = uint32(0x5AF7CC17)
	relinKeyMagic    = uint32(0x5AF7CC16)

	maxLimbs        = 64 // chain length; bounds special primes and gadget digits too
	maxDegree       = 1 << 20
	maxRotationKeys = 1 << 16
)

// limbWidth is the bytes each residue of limb i of a poly over moduli takes
// on the wire: its prime's width, or 8 when moduli is nil (a writer that
// holds no parameters).
func limbWidth(moduli []uint64, i int) int {
	if moduli == nil {
		return wire.MaxWidth
	}
	return wire.ResidueWidth(moduli[i])
}

// wireModuli is what a writer under p packs residues to: p's Q and P primes,
// or none, every residue in 8 bytes, when p is nil.
func wireModuli(p *Parameters) (q, sp []uint64) {
	if p == nil {
		return nil, nil
	}
	return p.Q(), p.P()
}

// polySize, ciphertextSize and keySize are exact wire sizes: ciphertexts and
// key sets are the payloads big enough that growing the Writer would copy
// megabytes, so their writers allocate once. polySize is the wire size of a
// poly of limbs limbs of degree n over moduli.
func polySize(moduli []uint64, limbs, n int) int {
	size := 8 + limbs
	for i := 0; i < limbs; i++ {
		size += n * limbWidth(moduli, i)
	}
	return size
}

// ciphertextSize is the wire size of a ciphertext whose two components hold
// limbs limbs of degree n over q.
func ciphertextSize(q []uint64, limbs, n int) int { return 16 + 2*polySize(q, limbs, n) }

// keySize is the wire size of a key whose digits digits each hold a BQ of
// qLimbs limbs over q and a BP of pLimbs limbs over sp, of degree n. Every key
// generated or decoded has one shape for all its digits.
func keySize(q, sp []uint64, digits, qLimbs, pLimbs, n int) int {
	return len(SwitchingKey{}.Seed) + 4 + digits*(polySize(q, qLimbs, n)+polySize(sp, pLimbs, n))
}

// wireSize is the key's size on the wire at 8 bytes a residue.
func (key *SwitchingKey) wireSize() int {
	if len(key.Digits) == 0 {
		return keySize(nil, nil, 0, 0, 0, 0)
	}
	d := &key.Digits[0]
	return keySize(nil, nil, len(key.Digits), len(d.BQ.Coeffs), len(d.BP.Coeffs), len(d.BQ.Coeffs[0]))
}

// CiphertextWireSize is the bytes a ciphertext at level under p occupies on
// the wire, packed; at MaxLevel it is the largest ciphertext p admits.
func (p *Parameters) CiphertextWireSize(level int) int { return ciphertextSize(p.Q(), level+1, p.N()) }

// KeyWireSize is the bytes one switching key under p — the relinearization
// key or any rotation key — occupies on the wire, packed.
func (p *Parameters) KeyWireSize() int {
	return keySize(p.Q(), p.P(), p.Digits(p.MaxLevel()), p.MaxLevel()+1, len(p.P()), p.N())
}

// relinKeySize and rotationKeysSize are the exact wire sizes of a
// relinearization key and of a rotation-key set of n keys whose every key
// takes keyBytes.
func relinKeySize(keyBytes int) int        { return 4 + keyBytes }
func rotationKeysSize(n, keyBytes int) int { return 8 + n*(4+keyBytes) } // magic, count

// RelinKeyWireSize is the packed size of a relinearization key under p.
func (p *Parameters) RelinKeyWireSize() int { return relinKeySize(p.KeyWireSize()) }

// RotationKeysWireSize is the packed size of a rotation-key set with keys
// for n steps under p.
func (p *Parameters) RotationKeysWireSize(n int) int { return rotationKeysSize(n, p.KeyWireSize()) }

// EvaluationKeysSize is the coefficient bytes an EvaluationKeySet of a
// relinearization key and n rotation keys holds under p once Validate has
// expanded its a_d: each digit of each key keeps b_d and a_d over Q and P.
func (p *Parameters) EvaluationKeysSize(n int) int {
	return (1 + n) * p.Digits(p.MaxLevel()) * 2 * (p.MaxLevel() + 1 + len(p.P())) * p.N() * 8
}

// writePoly writes p with limb i at limbWidth(moduli, i) bytes a residue.
func writePoly(w *wire.Writer, p *ring.Poly, moduli []uint64) {
	w.U32(uint32(len(p.Coeffs)))
	w.U32(uint32(len(p.Coeffs[0])))
	for i := range p.Coeffs {
		w.U8(uint8(limbWidth(moduli, i)))
	}
	for i, limb := range p.Coeffs {
		w.Residues(limb, limbWidth(moduli, i))
	}
}

// readPoly returns nil once r has failed.
func readPoly(r *wire.Reader) *ring.Poly {
	limbs, n := r.Count(maxLimbs), r.Count(maxDegree)
	if limbs == 0 || n == 0 {
		r.Fail("implausible poly header (%d limbs, N=%d)", limbs, n)
	}
	widths := r.Bytes(limbs)
	p := &ring.Poly{Coeffs: make([][]uint64, len(widths))}
	for i, width := range widths {
		p.Coeffs[i] = r.Residues(n, int(width))
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

// MarshalBinary implements encoding.BinaryMarshaler: AppendWire without
// parameters, every residue in 8 bytes, into a buffer of the exact size.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	return ct.AppendWire(make([]byte, 0, ciphertextSize(nil, len(ct.C0.Coeffs), len(ct.C0.Coeffs[0]))), nil), nil
}

// AppendWire appends the ciphertext's wire form to b, packed at p's prime
// widths: CiphertextWireSize(ct.Level) bytes, what a client sends and a
// server answers. A nil p writes every residue in 8 bytes.
func (ct *Ciphertext) AppendWire(b []byte, p *Parameters) []byte {
	q, _ := wireModuli(p)
	w := wire.Writer(b)
	w.U32(ciphertextMagic)
	w.U32(uint32(ct.Level))
	w.F64(ct.Scale)
	writePoly(&w, ct.C0, q)
	writePoly(&w, ct.C1, q)
	return w
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

// writeKey serializes a switching key: its seed and each digit's b_d, BQ
// packed over q and BP over sp.
func writeKey(w *wire.Writer, key *SwitchingKey, q, sp []uint64) {
	w.Bytes(key.Seed[:])
	w.U32(uint32(len(key.Digits)))
	for i := range key.Digits {
		writePoly(w, key.Digits[i].BQ, q)
		writePoly(w, key.Digits[i].BP, sp)
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

// MarshalBinary implements encoding.BinaryMarshaler: AppendWire without
// parameters, every residue in 8 bytes, into a buffer of the exact size.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	return rlk.AppendWire(make([]byte, 0, relinKeySize(rlk.wireSize())), nil), nil
}

// AppendWire appends the key's wire form to b, packed at the widths of p,
// the parameters the key was generated under: RelinKeyWireSize bytes. A nil
// p writes every residue in 8 bytes.
func (rlk *RelinearizationKey) AppendWire(b []byte, p *Parameters) []byte {
	q, sp := wireModuli(p)
	w := wire.Writer(b)
	w.U32(relinKeyMagic)
	writeKey(&w, &rlk.SwitchingKey, q, sp)
	return w
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

// MarshalBinary implements encoding.BinaryMarshaler: AppendWire without
// parameters, every residue in 8 bytes, into a buffer of the exact size.
// Every key of a set, generated or decoded, has one shape, so any one of
// them sizes the rest.
func (rks *RotationKeySet) MarshalBinary() ([]byte, error) {
	keyBytes := 0
	for _, key := range rks.keys {
		keyBytes = key.wireSize()
		break
	}
	return rks.AppendWire(make([]byte, 0, rotationKeysSize(len(rks.keys), keyBytes)), nil), nil
}

// AppendWire appends the set's wire form to b, packed at the widths of p,
// the parameters its keys were generated under; a nil p writes every residue
// in 8 bytes. Steps are written in sorted order so equal sets serialize
// identically.
func (rks *RotationKeySet) AppendWire(b []byte, p *Parameters) []byte {
	q, sp := wireModuli(p)
	steps := rks.Steps()
	w := wire.Writer(b)
	w.U32(rotationKeyMagic)
	w.U32(uint32(len(steps)))
	for _, step := range steps {
		w.U32(uint32(step))
		writeKey(&w, rks.keys[step], q, sp)
	}
	return w
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. No key holds its
// a_d until EvaluationKeySet.Validate expands them.
func (rks *RotationKeySet) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: rotation keys", data)
	r.Magic(rotationKeyMagic)
	keys := rotationKeys{byStep: map[int]*SwitchingKey{}}
	for n := r.Count(maxRotationKeys); n > 0 && r.Err() == nil; n-- {
		keys.read(r)
	}
	if err := r.Done(); err != nil {
		return err
	}
	rks.keys = keys.byStep
	return nil
}

// rotationKeys is a rotation-key set being decoded, one key at a time.
type rotationKeys struct {
	byStep map[int]*SwitchingKey
	ref    *SwitchingKey // the set's first key
}

// read decodes the set's next key, its step and then the key, from r. Keys
// must agree on one shape across the whole set (readKey only checks within a
// key): a set mixing ring degrees or chain lengths would panic the key-switch
// loop instead of erroring here.
func (set *rotationKeys) read(r *wire.Reader) {
	step := int(r.U32())
	if _, dup := set.byStep[step]; dup || step == 0 || step > maxDegree {
		r.Fail("rotation step %d is zero, implausible or repeated", step)
	}
	key := readKey(r)
	if set.ref == nil {
		set.ref = key
	}
	if r.Err() == nil && (len(key.Digits) != len(set.ref.Digits) ||
		!sameShape(key.Digits[0].BQ, set.ref.Digits[0].BQ) || !sameShape(key.Digits[0].BP, set.ref.Digits[0].BP)) {
		r.Fail("rotation keys disagree on digit count, limb counts or ring degree")
	}
	set.byStep[step] = key
}

// KeyReader decodes key blobs off a stream in the packed sizes its
// parameters give them. Every key takes KeyWireSize bytes, so each is read
// whole into one buffer of that size, which the reader keeps for the next,
// and decoded there by the decoders UnmarshalBinary runs: a reader holds one
// key's wire bytes besides the keys it returns.
type KeyReader struct {
	p   *Parameters
	src io.Reader
	buf []byte
}

// NewKeyReader reads key blobs under p off src.
func (p *Parameters) NewKeyReader(src io.Reader) *KeyReader { return &KeyReader{p: p, src: src} }

// next reads the stream's next n bytes into the reader's buffer. A stream
// that ends first fails with io.ErrUnexpectedEOF.
func (kr *KeyReader) next(what string, n int) ([]byte, error) {
	if cap(kr.buf) < n {
		kr.buf = make([]byte, n)
	}
	b := kr.buf[:n]
	if _, err := io.ReadFull(kr.src, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return b, nil
}

// RelinearizationKey reads a relinearization key, RelinKeyWireSize bytes.
func (kr *KeyReader) RelinearizationKey() (*RelinearizationKey, error) {
	b, err := kr.next("ckks: relinearization key", kr.p.RelinKeyWireSize())
	if err != nil {
		return nil, err
	}
	rlk := new(RelinearizationKey)
	if err := rlk.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return rlk, nil
}

// RotationKeys reads a rotation-key set of n keys, RotationKeysWireSize(n)
// bytes: its head, then each key behind its step. A set that declares
// another count fails before any key is read.
func (kr *KeyReader) RotationKeys(n int) (*RotationKeySet, error) {
	const what = "ckks: rotation keys"
	b, err := kr.next(what, 8)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(what, b)
	r.Magic(rotationKeyMagic)
	if count := r.Count(maxRotationKeys); r.Err() == nil && count != n {
		r.Fail("%d keys, want %d", count, n)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	keys := rotationKeys{byStep: map[int]*SwitchingKey{}}
	for ; n > 0; n-- {
		if b, err = kr.next(what, 4+kr.p.KeyWireSize()); err != nil {
			return nil, err
		}
		r = wire.NewReader(what, b)
		keys.read(r)
		if err := r.Done(); err != nil {
			return nil, err
		}
	}
	return &RotationKeySet{keys: keys.byStep}, nil
}
