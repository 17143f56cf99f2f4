// Package wiremagic is the wiremagic analyzer's test fixture: a stand-in
// for the internal/wire Reader and unmarshalers that do and do not frame
// their decode with Magic and Done.
package wiremagic

const blobMagic = uint32(0xB10B)

type Reader struct {
	buf []byte
	err error
}

func (r *Reader) Magic(want uint32)   {}
func (r *Reader) Count(max int) int   { return 0 }
func (r *Reader) U64s(n int) []uint64 { return nil }
func (r *Reader) Done() error         { return r.err }

// Blob leads with Magic and finishes with Done: compliant.
type Blob struct{ words []uint64 }

func (b *Blob) UnmarshalBinary(data []byte) error {
	r := &Reader{buf: data}
	r.Magic(blobMagic)
	b.words = r.U64s(r.Count(1 << 16))
	return r.Done()
}

// Naked never checks a magic constant.
type Naked struct{ words []uint64 }

func (nk *Naked) UnmarshalBinary(data []byte) error { // want "does not lead with a Reader.Magic check"
	r := &Reader{buf: data}
	nk.words = r.U64s(r.Count(1 << 10))
	return r.Done()
}

// Late checks its magic only after it has already trusted a count.
type Late struct{ words []uint64 }

func (l *Late) UnmarshalBinary(data []byte) error { // want "does not lead with a Reader.Magic check"
	r := &Reader{buf: data}
	n := r.Count(1 << 10)
	r.Magic(blobMagic)
	l.words = r.U64s(n)
	return r.Done()
}

// Open never asks the Reader whether the decode worked.
type Open struct{ words []uint64 }

func (o *Open) UnmarshalBinary(data []byte) error { // want "never calls Reader.Done"
	r := &Reader{buf: data}
	r.Magic(blobMagic)
	o.words = r.U64s(r.Count(1 << 10))
	return nil
}

// Raw parses bytes by hand, with no Reader at all.
type Raw struct{ b byte }

func (rw *Raw) UnmarshalBinary(data []byte) error { // want "does not lead with a Reader.Magic check" "never calls Reader.Done"
	if len(data) > 0 {
		rw.b = data[0]
	}
	return nil
}
