package wire

import (
	"errors"
	"io"
	"math"
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
	w.U64s([]uint64{1, 2, math.MaxUint64})
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
	if got := r.U64s(r.Count(8)); !reflect.DeepEqual(got, []uint64{1, 2, math.MaxUint64}) {
		t.Errorf("U64s = %v", got)
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
	if r.U64() != 0 || r.U32() != 0 || r.F64() != 0 || r.U64s(1) != nil || r.Bytes(1) != nil || r.Count(1<<30) != 0 {
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

// TestSliceReadsBoundedByPayload: a length that Count accepted still cannot
// make a slice read allocate more than the bytes that are actually there.
func TestSliceReadsBoundedByPayload(t *testing.T) {
	var w Writer
	w.U32(1 << 28) // claims 2 GiB of u64s; 8 bytes follow
	w.U64(1)
	for name, read := range map[string]func(*Reader, int){
		"U64s":  func(r *Reader, n int) { r.U64s(n) },
		"F64s":  func(r *Reader, n int) { r.F64s(n) },
		"Bytes": func(r *Reader, n int) { r.Bytes(8 * n) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader("fmt", w)
		read(r, r.Count(1<<30))
		runtime.ReadMemStats(&after)
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Errorf("%s: overlong read reported %v, want an unexpected EOF", name, r.Err())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 { // the Reader and its error, never the claim
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
