package server

import (
	"io"

	"github.com/efficientfhe/smartpaf/internal/ckks"
)

// POST /v1/sessions?model=<ref> names the model in its query; its body is
// three ckks payloads back to back, each leading with its own magic:
//
//	ckks.ParametersLiteral | ckks.RelinearizationKey | ckks.RotationKeySet
//
// Model is "name" (newest live version) or "name@version"; the literal echoes
// the one the keys were generated under, and must equal the model's
// prescribed literal byte for byte. The body carries evaluation keys only:
// the public key encrypts and the secret key decrypts, and the server does
// neither. Each key is a 32-byte seed and its b_d, every residue at its
// prime's byte width: the uniform a_d, half of every key, never cross the
// wire, and ckks.EvaluationKeySet.Validate regenerates them under the model's
// moduli.
//
// The model fixes every byte of the body — its literal, its relinearization
// key and one rotation key per step it uses — so a valid body has exactly
// frameSize bytes, and the server refuses any other length before reading
// one. Neither side holds the body: the client generates each key onto it as
// it goes (writeRegistration), and the server matches the literal before any
// key byte and decodes the keys off the body one at a time (ckks.KeyReader).

// frameSize is the exact length of a registration body echoing the literal
// paramBytes and carrying a key set under params with keys for steps rotation
// steps. ckks owns the key sizes.
func frameSize(paramBytes []byte, params *ckks.Parameters, steps int) int {
	return len(paramBytes) + params.RelinKeyWireSize() + params.RotationKeysWireSize(steps)
}

// writeRegistration writes the body a client uploads to w: the literal
// paramBytes, then kg's relinearization key and its rotation keys for steps,
// generated straight onto w by ckks' streaming writers, which pack each b_d
// at the primes' widths. The writers hold one key's bytes per core, never a
// key set; the first write error stops them and is returned.
func writeRegistration(w io.Writer, kg *ckks.KeyGenerator, sk *ckks.SecretKey, paramBytes []byte, steps []int) error {
	if _, err := w.Write(paramBytes); err != nil {
		return err
	}
	if err := kg.WriteRelinearizationKey(w, sk); err != nil {
		return err
	}
	return kg.WriteRotationKeys(w, sk, steps)
}
