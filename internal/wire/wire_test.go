package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U32(0xCAFE)
	w.U64(1 << 40)
	w.F64(-2.5)
	w.Blob([]byte("name"))
	w.U32(3)
	w.Residues([]uint64{1, 2, math.MaxUint64}, 8)
	w.U32(2)
	w.F64s([]float64{0.5, -1e300})

	r := NewReader("test", w)
	r.Magic(0xCAFE)
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); got != -2.5 {
		t.Errorf("F64 = %g", got)
	}
	if got := string(r.Blob(16)); got != "name" {
		t.Errorf("Blob = %q", got)
	}
	if got := r.Residues(r.Count(8), 8); !reflect.DeepEqual(got, []uint64{1, 2, math.MaxUint64}) {
		t.Errorf("Residues = %v", got)
	}
	if got := r.F64s(r.Count(8)); !reflect.DeepEqual(got, []float64{0.5, -1e300}) {
		t.Errorf("F64s = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestStickyError: the first failure is the one reported, and every read
// after it is a harmless zero.
func TestStickyError(t *testing.T) {
	var w Writer
	w.U32(7)
	w.U32(1000) // a count over the limit below
	w.U64(42)

	r := NewReader("fmt", w)
	r.Magic(7)
	if n := r.Count(10); n != 0 {
		t.Errorf("refused count returned %d", n)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("count over the limit was accepted")
	}
	if r.U64() != 0 || r.U32() != 0 || r.F64() != 0 || r.Residues(1, 8) != nil || r.Bytes(1) != nil || r.Count(1<<30) != 0 {
		t.Error("a read after the failure returned data")
	}
	r.Fail("a later complaint")
	if err := r.Done(); err != first {
		t.Errorf("Done reported %v, want the first failure %v", err, first)
	}

	r = NewReader("fmt", w)
	r.Magic(8)
	if err := r.Done(); err == nil || err.Error() != "fmt: bad magic 0x7, want 0x8" {
		t.Errorf("bad magic reported as %v", err)
	}
}

// leastAllocated runs f five times and returns the fewest bytes the process
// allocated during one run. The count is process-wide, so a run can be
// charged for the runtime or another test's goroutine allocating alongside;
// an over-allocation of f's own repeats on every run and survives the
// minimum.
func leastAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSliceReadsBoundedByPayload: a length that Count accepted still cannot
// make a slice read allocate more than the bytes that are actually there.
func TestSliceReadsBoundedByPayload(t *testing.T) {
	var w Writer
	w.U32(1 << 28) // claims 2 GiB of u64s; 8 bytes follow
	w.U64(1)
	for name, read := range map[string]func(*Reader, int){
		"Residues": func(r *Reader, n int) { r.Residues(n, 8) },
		"F64s":     func(r *Reader, n int) { r.F64s(n) },
		"Bytes":    func(r *Reader, n int) { r.Bytes(8 * n) },
	} {
		var r *Reader
		got := leastAllocated(func() {
			r = NewReader("fmt", w)
			read(r, r.Count(1<<30))
		})
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Errorf("%s: overlong read reported %v, want an unexpected EOF", name, r.Err())
		}
		if got > 4096 { // the Reader and its error, never the claim
			t.Errorf("%s: a 12-byte payload made the read allocate %d bytes", name, got)
		}
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader("fmt", []byte{1, 0, 0, 0, 9})
	r.Magic(1)
	if err := r.Done(); err == nil {
		t.Fatal("a trailing byte passed Done")
	}
}

func TestF64sRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var w Writer
		w.F64s([]float64{1, v})
		r := NewReader("fmt", w)
		if got := r.F64s(2); got != nil || r.Err() == nil {
			t.Errorf("F64s accepted %g", v)
		}
	}
}

// TestResiduesRoundTrip: for every prime size from 20 to 61 bits, residues
// below 2^bits survive a write and read at every width from the size's own
// (ResidueWidth) up to 8 bytes, at N = 16 and N = 1024, and at runs of one
// and two values, all of whose bytes are the byte-by-byte tail. The run sits
// between other bytes, with spare capacity behind it: the 8-byte stores
// write nothing outside the run, which a rotation key's range relies on.
func TestResiduesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for bits := 20; bits <= 61; bits++ {
		top := uint64(1)<<bits - 1
		for width := ResidueWidth(top); width <= MaxWidth; width++ {
			for _, n := range []int{1, 2, 16, 1024} {
				vs := make([]uint64, n)
				for i := range vs {
					vs[i] = rng.Uint64() & top
				}
				vs[0], vs[n-1] = top, top // the last residue, where the tail runs out
				if n > 2 {
					vs[n-2] = 0
				}
				backing := bytes.Repeat([]byte{0xA5}, 3+n*width+5)
				w := Writer(backing[:3])
				w.Residues(vs, width)
				if len(w) != 3+n*width || !bytes.Equal(backing[:3], []byte{0xA5, 0xA5, 0xA5}) ||
					!bytes.Equal(backing[3+n*width:], bytes.Repeat([]byte{0xA5}, 5)) {
					t.Fatalf("%d bits, width %d, n %d: the run wrote outside its %d bytes", bits, width, n, n*width)
				}
				r := NewReader("residues", backing[3:3+n*width])
				if got := r.Residues(n, width); !reflect.DeepEqual(got, vs) || r.Done() != nil {
					t.Fatalf("%d bits, width %d, n %d: read back %v values (%v), want them equal", bits, width, n, len(got), r.Err())
				}
			}
		}
	}
	if ResidueWidth(1<<20+1) != 3 || ResidueWidth(1<<56-1) != 7 || ResidueWidth(1<<56+1) != 8 {
		t.Error("ResidueWidth is not ⌈bits.Len64(q)/8⌉")
	}
}

// TestResiduesRefuseWidths: a width outside 3..8 is refused before any byte
// is read or any value allocated, however many values the count claims.
func TestResiduesRefuseWidths(t *testing.T) {
	payload := make([]byte, 1<<12)
	for _, width := range []int{0, 1, 2, 9, 255} {
		r := NewReader("residues", payload)
		if got := r.Residues(16, width); got != nil || r.Err() == nil {
			t.Errorf("width %d: read %d values, error %v", width, len(got), r.Err())
		}
	}
}

// TestResidueDecodeAllocBound: a residue decodes to 8 bytes and takes at
// least 3 on the wire, so reading residues allocates at most 8/3 of the bytes
// it consumes — the package's bound on a decoder's allocation.
func TestResidueDecodeAllocBound(t *testing.T) {
	const n = 1 << 18
	for width := MinWidth; width <= MaxWidth; width++ {
		payload := make([]byte, n*width)
		var r *Reader
		got := leastAllocated(func() {
			r = NewReader("residues", payload)
			r.Residues(n, width)
		})
		bound := uint64(len(payload))*8/3 + 64<<10 // the Reader, and the runtime's own
		if r.Done() != nil || got > bound {
			t.Errorf("width %d: %d payload bytes allocated %d, over 8/3 of the payload (%d); %v", width, len(payload), got, bound, r.Err())
		}
	}
}

// FuzzResidues throws arbitrary bytes at the residue decoder: the first byte
// is the width, the rest the payload, read as many whole residues as it
// holds. A width outside 3..8 must be refused; anything read must re-encode
// at the same width to the very bytes it came from.
func FuzzResidues(f *testing.F) {
	var w Writer
	w.Residues([]uint64{1, 1<<45 - 1, 1 << 20, 0}, 6)
	for _, width := range []byte{0, 2, 3, 6, 8, 9} {
		f.Add(append([]byte{width}, w...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width, payload := int(data[0]), data[1:]
		n := 0
		if width > 0 {
			n = len(payload) / width
			payload = payload[:n*width]
		}
		r := NewReader("residues", payload)
		vs := r.Residues(n, width)
		if width < MinWidth || width > MaxWidth {
			if r.Err() == nil {
				t.Fatalf("width %d accepted", width)
			}
			return
		}
		if err := r.Done(); err != nil {
			t.Fatalf("width %d, %d whole residues: %v", width, n, err)
		}
		var again Writer
		again.Residues(vs, width)
		if !bytes.Equal(again, payload) {
			t.Fatalf("width %d: %d residues re-encode to other bytes", width, n)
		}
	})
}

// BenchmarkResidues prices the residue codec per value, writing and reading
// one limb of 1024 residues at the widths the chains use (6 and 7 bytes)
// and at 8.
func BenchmarkResidues(b *testing.B) {
	vs := make([]uint64, 1024)
	for i := range vs {
		vs[i] = uint64(i) * 0x9E3779B97F4A7C15 >> 8 // 56 bits
	}
	for _, width := range []int{6, 7, 8} {
		top := ^uint64(0) >> (64 - 8*width)
		in := make([]uint64, len(vs))
		for i, v := range vs {
			in[i] = v & top
		}
		b.Run(fmt.Sprintf("write/w=%d", width), func(b *testing.B) {
			w := make(Writer, 0, len(in)*width)
			for i := 0; i < b.N; i++ {
				w = w[:0]
				w.Residues(in, width)
			}
		})
		var w Writer
		w.Residues(in, width)
		b.Run(fmt.Sprintf("read/w=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewReader("residues", w).Residues(len(in), width)
			}
		})
	}
}
