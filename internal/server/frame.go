package server

import "github.com/efficientfhe/smartpaf/internal/wire"

// registration is the body of POST /v1/sessions, one binary frame on the
// internal/wire codec (blob = u32 length | bytes):
//
//	u32 0x5AF7CC0D | blob model | blob params | blob relinKey | blob rotationKeys
//
// It carries evaluation keys only: the public key encrypts and the secret key
// decrypts, and the server does neither. The two key blobs hold the
// internal/ckks formats and stay undecoded until the header has resolved a
// model and matched its parameter literal. Each key in them is a 32-byte seed
// and its b_d: the uniform a_d, half of every key, never cross the wire, and
// ckks.EvaluationKeySet.Validate regenerates them under the model's moduli.
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
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (reg *registration) MarshalBinary() ([]byte, error) {
	w := make(wire.Writer, 0, 20+len(reg.Model)+len(reg.Params)+len(reg.RelinKey)+len(reg.RotationKeys))
	w.U32(registrationMagic)
	w.Blob([]byte(reg.Model))
	w.Blob(reg.Params)
	w.Blob(reg.RelinKey)
	w.Blob(reg.RotationKeys)
	return w, nil
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
