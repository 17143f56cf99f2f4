package server

import (
	"encoding/binary"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// registration is the body of POST /v1/sessions, one binary frame on the
// internal/wire codec (blob = u32 length | bytes):
//
//	u32 0x5AF7CC0D | blob model | blob params | blob relinKey | blob rotationKeys
//
// It carries evaluation keys only: the public key encrypts and the secret key
// decrypts, and the server does neither. Each key in the two key blobs is a
// 32-byte seed and its b_d, every residue at its prime's byte width: the
// uniform a_d, half of every key, never cross the wire, and
// ckks.EvaluationKeySet.Validate regenerates them under the model's moduli.
//
// The frame leads with the model so the server can size the rest before
// reading it. It reads the magic and the model blob alone (at most
// maxPrefix bytes) and resolves the model; every later byte is then a
// function of that model — its literal, its relinearization key and one
// rotation key per step it uses — so a valid frame has exactly frameSize
// bytes. The server reads exactly that many into one buffer and refuses any
// other length before decoding a key; the key blobs stay undecoded until the
// literal has matched the model's byte for byte.
type registration struct {
	// Model is "name" (newest live version) or "name@version".
	Model string
	// Params echoes the parameter literal the keys were generated under; it
	// must equal the model's prescribed literal byte for byte.
	Params                 []byte
	RelinKey, RotationKeys []byte
}

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

// keysIntoFrame is the frame a client uploads for the model ref names: it
// generates kg's relinearization key, then its rotation keys for steps,
// straight into one buffer of the frame's exact size, with ckks' append
// front-ends, which pack each b_d at params' prime widths. No whole key
// exists on the way: each digit's a_d and b_d are pooled scratch, so the
// frame is the only large buffer it allocates.
func keysIntoFrame(kg *ckks.KeyGenerator, sk *ckks.SecretKey, ref string, paramBytes []byte, params *ckks.Parameters, steps []int) []byte {
	return appendRegistration(make([]byte, 0, frameSize(ref, paramBytes, params, len(steps))), ref, paramBytes,
		func(b []byte) []byte { return kg.AppendRelinearizationKey(b, sk) },
		func(b []byte) []byte { return kg.AppendRotationKeys(b, sk, steps) })
}

// appendRegistration appends a registration frame to b in one pass. Each key
// blob's length is written behind it once relinKey or rotationKeys has
// appended the key's wire form, so no key is marshaled anywhere but into the
// frame.
func appendRegistration(b []byte, model string, params []byte, relinKey, rotationKeys func([]byte) []byte) []byte {
	w := wire.Writer(b)
	w.U32(registrationMagic)
	w.Blob([]byte(model))
	w.Blob(params)
	for _, key := range []func([]byte) []byte{relinKey, rotationKeys} {
		at := len(w)
		w.U32(0)
		w = key(w)
		binary.LittleEndian.PutUint32(w[at:], uint32(len(w)-at-4))
	}
	return w
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The byte fields are
// views into data, not copies, so the payload itself is their only bound; the
// model reference is copied into error messages and gets a real one.
func (reg *registration) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("registration frame", data)
	r.Magic(registrationMagic)
	out := registration{Model: string(r.Blob(maxModelRef))}
	out.Params, out.RelinKey, out.RotationKeys = r.Blob(len(data)), r.Blob(len(data)), r.Blob(len(data))
	if err := r.Done(); err != nil {
		return err
	}
	*reg = out
	return nil
}
