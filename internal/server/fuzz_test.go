package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRegisterFrame throws arbitrary bodies at POST /v1/sessions?model= for
// the test model — the sized body read, the literal match, key decode and
// ckks validation, in one handler.
// Anything but an honest body must be refused with a 4xx (never a panic, a
// 5xx, or an allocation sized by a hostile length), and only a 200 may leave
// a session behind. Once that session is deleted, nothing may stay charged
// to the key budget.
func FuzzRegisterFrame(f *testing.F) {
	_, srv, _ := newTestServer(f)
	dep := srv.reg.List()[0]
	kg, sk := keyGen(f, srv, 3, nil)
	honest := frameFor(srv, kg, sk, dep.Rotations())
	seed := marshalFrame(honest)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(honest.Params)]) // the literal only
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	// The same body as a client from before grouped digits would frame it:
	// retired magics on the literal and on both keys.
	old := honest
	for blob, magic := range map[*[]byte]uint32{&old.Params: 0x5AF7CC05, &old.RelinKey: 0x5AF7CC0B, &old.RotationKeys: 0x5AF7CC06} {
		*blob = append([]byte(nil), *blob...)
		binary.LittleEndian.PutUint32(*blob, magic)
	}
	f.Add(marshalFrame(old))
	// And as a client from before seeded keys would frame it.
	unseeded := honest
	for blob, magic := range map[*[]byte]uint32{&unseeded.RelinKey: 0x5AF7CC10, &unseeded.RotationKeys: 0x5AF7CC0F} {
		*blob = append([]byte(nil), *blob...)
		binary.LittleEndian.PutUint32(*blob, magic)
	}
	f.Add(marshalFrame(unseeded))
	// And as a client from before the rotation-key set lost its trailing
	// flag for an optional extra key: the old magic, and the flag (0) behind
	// the last key.
	flagged := honest
	flagged.RotationKeys = binary.LittleEndian.AppendUint32(append([]byte(nil), honest.RotationKeys...), 0)
	binary.LittleEndian.PutUint32(flagged.RotationKeys, 0x5AF7CC12)
	f.Add(marshalFrame(flagged))
	// And as a client from before residues were packed to their primes'
	// widths: the 8-byte keys under their old magics.
	eight := honest
	var err error
	if eight.RelinKey, err = kg.GenRelinearizationKey(sk).MarshalBinary(); err == nil {
		eight.RotationKeys, err = kg.GenRotationKeys(sk, dep.Rotations(), false).MarshalBinary()
	}
	if err != nil {
		f.Fatal(err)
	}
	for blob, magic := range map[*[]byte]uint32{&eight.RelinKey: 0x5AF7CC13, &eight.RotationKeys: 0x5AF7CC14} {
		binary.LittleEndian.PutUint32(*blob, magic)
	}
	f.Add(marshalFrame(eight))
	// Residue widths the decoder refuses, and widths that shift a byte
	// between the relinearization key's first two limbs at the frame's size.
	const relinWidths = 4 + 32 + 4 + 8
	for _, widths := range [][]byte{{0}, {2}, {9}, {honest.RelinKey[relinWidths] + 1, honest.RelinKey[relinWidths+1] - 1}} {
		hostile := honest
		hostile.RelinKey = bytes.Clone(honest.RelinKey)
		copy(hostile.RelinKey[relinWidths:], widths)
		f.Add(marshalFrame(hostile))
	}
	// The server sizes the body from the model the query names: the honest
	// body one byte long and one byte short, cut behind the relinearization
	// key, with its key payloads swapped, and the same payloads in the
	// retired frame, which led with the model, whole and cut to the body's
	// size.
	f.Add(append(append([]byte(nil), seed...), 0))
	f.Add(seed[:len(seed)-1])
	f.Add(seed[:len(honest.Params)+len(honest.RelinKey)])
	f.Add(marshalFrame(registration{Params: honest.Params, RelinKey: honest.RotationKeys, RotationKeys: honest.RelinKey}))
	retired := retiredFrame(dep.Ref(), honest)
	f.Add(retired)
	f.Add(retired[:len(seed)])
	handler := srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, registerPath(dep.Ref()), bytes.NewReader(data)))
		registered := liveSessions(srv)
		var resp registerResponse
		switch {
		case rec.Code == http.StatusOK && registered == 1 &&
			json.Unmarshal(rec.Body.Bytes(), &resp) == nil && srv.removeSession(resp.SessionID):
		case rec.Code >= 400 && rec.Code < 500 && registered == 0:
		default:
			t.Fatalf("status %d with %d new sessions: %s", rec.Code, registered, rec.Body)
		}
		if charged, _ := keyCharge(srv); charged != 0 {
			t.Fatalf("status %d left %d bytes charged to the key budget", rec.Code, charged)
		}
	})
}
