// Package wire is the one codec under every binary format in the repository:
// little-endian scalars, raw slices, residues packed to a byte width, and
// u32-length-prefixed blobs, framed by a leading magic. A Writer appends to a
// byte slice and cannot fail. A Reader walks a byte slice with a sticky error:
// after the first failure every read returns zero, so decoders read straight
// through and check Err (or Done) once. Count is the only source of an
// allocation size, and every slice read refuses a size larger than the bytes
// remaining, so a header never sets an allocation. A slice read allocates at
// most 8/3 of the bytes it consumes: 8 bytes per value, and a residue takes at
// least 3 on the wire. A decoder's allocation is therefore bounded by 8/3 of
// its payload, plus whatever it keeps per element of its own.
//
// Every format leads with its own magic, so a mis-routed payload fails at the
// front door. The registry, in allocation order:
//
//	0x5AF7CC05  retired (ckks.ParametersLiteral with a single special prime)
//	0x5AF7CC06  retired (ckks.RotationKeySet, one gadget digit per chain prime)
//	0x5AF7CC07  henn.MLP
//	0x5AF7CC08  registry.Model bundle (.hemodel, POST /v1/models)
//	0x5AF7CC09  retired (ckks.Ciphertext, every residue in 8 bytes)
//	0x5AF7CC0A  retired (ckks.PublicKey; public keys no longer cross the wire)
//	0x5AF7CC0B  retired (ckks.RelinearizationKey, per-prime digits)
//	0x5AF7CC0C  retired (ckks.SwitchingKey, per-prime digits)
//	0x5AF7CC0D  retired (server registration frame; POST /v1/sessions?model= takes three ckks payloads)
//	0x5AF7CC0E  ckks.ParametersLiteral
//	0x5AF7CC0F  retired (ckks.RotationKeySet carrying every a_d)
//	0x5AF7CC10  retired (ckks.RelinearizationKey carrying every a_d)
//	0x5AF7CC11  retired (standalone ckks.SwitchingKey; no successor)
//	0x5AF7CC12  retired (ckks.RotationKeySet with a conjugation flag)
//	0x5AF7CC13  retired (ckks.RelinearizationKey, every residue in 8 bytes)
//	0x5AF7CC14  retired (ckks.RotationKeySet, every residue in 8 bytes)
//	0x5AF7CC15  ckks.Ciphertext (residues at a per-limb byte width)
//	0x5AF7CC16  ckks.RelinearizationKey (a seed for its a_d, then its b_d at per-limb widths)
//	0x5AF7CC17  ckks.RotationKeySet (each key a seed for its a_d, then its b_d at per-limb widths)
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Writer accumulates a payload; convert it to []byte when done.
type Writer []byte

func (w *Writer) U8(v uint8)    { *w = append(*w, v) }
func (w *Writer) U32(v uint32)  { *w = binary.LittleEndian.AppendUint32(*w, v) }
func (w *Writer) U64(v uint64)  { *w = binary.LittleEndian.AppendUint64(*w, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends b raw; Blob appends it behind a u32 length.
func (w *Writer) Bytes(b []byte) { *w = append(*w, b...) }
func (w *Writer) Blob(b []byte)  { w.U32(uint32(len(b))); w.Bytes(b) }

// Residue widths: a residue takes MinWidth to MaxWidth bytes on the wire.
const (
	MinWidth = 3
	MaxWidth = 8
)

// ResidueWidth is the byte width of the residues modulo q: the fewest bytes
// that hold q's bit length (⌈bits.Len64(q)/8⌉).
func ResidueWidth(q uint64) int { return (bits.Len64(q) + 7) / 8 }

// Residues appends each value in its low width bytes, little-endian and
// without a length; width is MinWidth..MaxWidth and every value must fit it.
// Each value is one 8-byte store, whose high bytes the next value's store
// overwrites; only the last values, where fewer than 8 bytes of the run
// remain, go byte by byte. So the writes stay inside the run's own bytes.
func (w *Writer) Residues(vs []uint64, width int) {
	n := len(vs) * width
	*w = slices.Grow(*w, n)
	at := len(*w)
	*w = (*w)[:at+n]
	run := (*w)[at:]
	i, off := 0, 0
	for ; off+8 <= n; i, off = i+1, off+width {
		binary.LittleEndian.PutUint64(run[off:], vs[i])
	}
	for ; i < len(vs); i, off = i+1, off+width {
		for k := 0; k < width; k++ {
			run[off+k] = byte(vs[i] >> (8 * k))
		}
	}
}

// F64s appends the values raw, without a length.
func (w *Writer) F64s(vs []float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

// Reader decodes a payload front to back.
type Reader struct {
	what string
	buf  []byte
	err  error
}

// NewReader starts a decode of data; what ("ckks: ciphertext") names the
// format in every error the Reader reports.
func NewReader(what string, data []byte) *Reader { return &Reader{what: what, buf: data} }

// Err reports the first failure, nil while every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records a failure — the Reader's own or a decoder's validation — as
// the sticky error, unless an earlier one already stands.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", r.what, fmt.Errorf(format, args...))
	}
}

// Done reports the sticky error, or an error if bytes remain unread.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Bytes returns the next n bytes as a view into the payload, not a copy.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.Fail("need %d bytes, %d remain: %w", n, len(r.buf), io.ErrUnexpectedEOF)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *Reader) U32() uint32  { return uint32(r.scalar(4)) }
func (r *Reader) U64() uint64  { return r.scalar(8) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// scalar reads an n-byte little-endian integer, zero once r has failed.
func (r *Reader) scalar(n int) (v uint64) {
	for i, b := range r.Bytes(n) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// Magic consumes the leading constant of a format.
func (r *Reader) Magic(want uint32) {
	if got := r.U32(); got != want {
		r.Fail("bad magic %#x, want %#x", got, want)
	}
}

// Count reads a u32 element count or length and refuses one above max.
func (r *Reader) Count(max int) int {
	n := r.U32()
	if uint64(n) > uint64(max) {
		r.Fail("count %d exceeds the limit %d", n, max)
		return 0
	}
	return int(n)
}

// Blob reads a u32 length of at most max and returns that many bytes.
func (r *Reader) Blob(max int) []byte { return r.Bytes(r.Count(max)) }

// Residues reads n values written by Writer.Residues at width bytes each;
// n comes from Count, and a width outside MinWidth..MaxWidth fails. Each
// value is one 8-byte load masked to width bytes, the last few (where fewer
// than 8 bytes of the run remain) byte by byte. The values come back as read:
// whether they are below their modulus is the decoder's check.
func (r *Reader) Residues(n, width int) []uint64 {
	if width < MinWidth || width > MaxWidth {
		r.Fail("residue width %d outside %d..%d", width, MinWidth, MaxWidth)
	}
	b := r.Bytes(n * width)
	if b == nil {
		return nil
	}
	vs := make([]uint64, n)
	mask := ^uint64(0) >> (64 - 8*width)
	i, off := 0, 0
	for ; off+8 <= len(b); i, off = i+1, off+width {
		vs[i] = binary.LittleEndian.Uint64(b[off:]) & mask
	}
	for ; i < n; i, off = i+1, off+width {
		for k := width - 1; k >= 0; k-- {
			vs[i] = vs[i]<<8 | uint64(b[off+k])
		}
	}
	return vs
}

// F64s reads n raw values and refuses NaN and Inf: a non-finite weight or
// scale would not crash a decoder's user, it would silently poison results.
func (r *Reader) F64s(n int) []float64 {
	b := r.Bytes(8 * n)
	if b == nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if math.IsNaN(vs[i]) || math.IsInf(vs[i], 0) {
			r.Fail("non-finite value %g at index %d", vs[i], i)
			return nil
		}
	}
	return vs
}
