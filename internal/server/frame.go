package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// The body of POST /v1/sessions is one binary frame on the internal/wire
// codec (blob = u32 length | bytes):
//
//	u32 0x5AF7CC0D | blob model | blob params | blob relinKey | blob rotationKeys
//
// Model is "name" (newest live version) or "name@version"; params echoes the
// parameter literal the keys were generated under, and must equal the
// model's prescribed literal byte for byte. The frame carries evaluation keys
// only: the public key encrypts and the secret key decrypts, and the server
// does neither. Each key in the two key blobs is a 32-byte seed and its b_d,
// every residue at its prime's byte width: the uniform a_d, half of every
// key, never cross the wire, and ckks.EvaluationKeySet.Validate regenerates
// them under the model's moduli.
//
// The frame leads with the model so the server can size the rest before
// reading it. It reads the magic and the model blob alone (at most maxPrefix
// bytes) and resolves the model; every later byte is then a function of that
// model — its literal, its relinearization key and one rotation key per step
// it uses — so a valid frame has exactly frameSize bytes, and each key blob
// ckks' exact size for it. Neither side holds the frame: the client generates
// each key onto the request body as it goes (writeRegistration), and the
// server refuses any other length up front, matches the literal before any
// key byte, and decodes the keys off the body one at a time (readKeys).
const (
	registrationMagic = uint32(0x5AF7CC0D)

	maxModelRef = 160 // a 128-byte model name, "@" and a version number
	maxPrefix   = 8 + maxModelRef
)

// frameSize is the exact length of a registration frame naming the model as
// ref, echoing the literal paramBytes, and carrying a key set under params
// with keys for steps rotation steps. ckks owns the key sizes.
func frameSize(ref string, paramBytes []byte, params *ckks.Parameters, steps int) int {
	return 4 + 4 + len(ref) + 4 + len(paramBytes) +
		4 + params.RelinKeyWireSize() + 4 + params.RotationKeysWireSize(steps)
}

// writeRegistration writes the frame a client uploads for the model ref
// names to w: kg's relinearization key, then its rotation keys for steps,
// generated straight onto w by ckks' streaming writers, which pack each b_d
// at params' prime widths. Each key blob's length is ckks' exact size for it,
// so it goes out ahead of the key. The writers hold one key's bytes per core,
// never a key set; the first write error stops them and is returned.
func writeRegistration(w io.Writer, kg *ckks.KeyGenerator, sk *ckks.SecretKey, ref string, paramBytes []byte, params *ckks.Parameters, steps []int) error {
	var head wire.Writer
	head.U32(registrationMagic)
	head.Blob([]byte(ref))
	head.Blob(paramBytes)
	head.U32(uint32(params.RelinKeyWireSize()))
	if _, err := w.Write(head); err != nil {
		return err
	}
	if err := kg.WriteRelinearizationKey(w, sk); err != nil {
		return err
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, uint32(params.RotationKeysWireSize(len(steps))))); err != nil {
		return err
	}
	return kg.WriteRotationKeys(w, sk, steps)
}

// readKeys decodes a frame's two key blobs off r, each behind a u32 length
// that must be ckks' exact size for it, with one ckks.KeyReader: the server
// holds one key's wire bytes at a time besides the decoded keys. A body that
// ends early fails with io.ErrUnexpectedEOF.
func readKeys(r io.Reader, params *ckks.Parameters, steps int) (ckks.EvaluationKeySet, error) {
	kr := params.NewKeyReader(r)
	var keys ckks.EvaluationKeySet
	err := readLength(r, params.RelinKeyWireSize(), "relinearization key")
	if err == nil {
		keys.Relin, err = kr.RelinearizationKey()
	}
	if err == nil {
		err = readLength(r, params.RotationKeysWireSize(steps), "rotation keys")
	}
	if err == nil {
		keys.Rotations, err = kr.RotationKeys(steps)
	}
	return keys, err
}

// readLength reads a blob's u32 length off r and refuses any but want.
func readLength(r io.Reader, want int, what string) error {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("registration frame: reading the %s length: %w", what, err)
	}
	if got := binary.LittleEndian.Uint32(b[:]); int64(got) != int64(want) {
		return fmt.Errorf("registration frame: a %d-byte %s, the model's takes %d", got, what, want)
	}
	return nil
}
