// Package errsink is the errsink analyzer's test fixture: a stand-in for
// the internal/wire Reader, a wire type with the (Un)MarshalBinary family,
// and every way an error can be silently dropped.
package errsink

import "io"

type Reader struct{ err error }

func (r *Reader) U32() uint32 { return 0 }
func (r *Reader) Done() error { return r.err }

type blob struct{ data []byte }

func (b *blob) UnmarshalBinary(p []byte) error {
	b.data = append(b.data[:0], p...)
	return nil
}

func (b *blob) MarshalBinary() ([]byte, error) {
	return b.data, nil
}

type Encoder struct{ w io.Writer }

func (e *Encoder) Encode(v []byte) error {
	_, err := e.w.Write(v)
	return err
}

func badDone(r *Reader) uint32 {
	n := r.U32()
	r.Done() // want "error from Reader.Done is discarded .results unused."
	return n
}

func badExprStmt(b *blob, p []byte) {
	b.UnmarshalBinary(p) // want "error from blob.UnmarshalBinary is discarded .results unused."
}

func badBlankAssign(b *blob, p []byte) {
	_ = b.UnmarshalBinary(p) // want "error from blob.UnmarshalBinary is assigned to _"
}

func badMarshal(b *blob) []byte {
	data, _ := b.MarshalBinary() // want "error from blob.MarshalBinary is assigned to _"
	return data
}

func badDefer(e *Encoder, v []byte) {
	defer e.Encode(v) // want "error from Encoder.Encode is discarded by defer"
}

func badGo(e *Encoder, v []byte) {
	go e.Encode(v) // want "error from Encoder.Encode is discarded by go statement"
}

func badDecl(b *blob) []byte {
	var data, _ = b.MarshalBinary() // want "error from blob.MarshalBinary is assigned to _"
	return data
}

// good checks every error it gets.
func good(r *Reader, b *blob, p []byte) (uint32, error) {
	n := r.U32()
	if err := r.Done(); err != nil {
		return 0, err
	}
	if err := b.UnmarshalBinary(p); err != nil {
		return 0, err
	}
	return n, nil
}

// audited is a best-effort path with a written-down justification.
func audited(b *blob, p []byte) {
	//hennlint:err-ok best-effort cache warm: a short read only means a cold start
	_ = b.UnmarshalBinary(p)
}
