package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRegisterFrame throws arbitrary bytes at POST /v1/sessions — prefix
// read, model resolution, the sized body read, frame decode, key decode and
// ckks validation, in one handler.
// Anything but an honest frame must be refused with a 4xx (never a panic, a
// 5xx, or an allocation sized by a hostile length), and only a 200 may leave
// a session behind. Once that session is deleted, nothing may stay charged
// to the key budget.
func FuzzRegisterFrame(f *testing.F) {
	_, srv, _ := newTestServer(f)
	dep := srv.reg.List()[0]
	kg, sk := keyGen(f, srv, 3, nil)
	honest := frameFor(f, srv, kg, sk, dep.Rotations(), false)
	seed := mustMarshal(f, honest)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:4+4+len(honest.Model)+4+len(honest.Params)]) // header only
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	// The same frame as a client from before grouped digits would frame it:
	// retired magics on the literal and on both keys.
	old := honest
	for blob, magic := range map[*[]byte]uint32{&old.Params: 0x5AF7CC05, &old.RelinKey: 0x5AF7CC0B, &old.RotationKeys: 0x5AF7CC06} {
		*blob = append([]byte(nil), *blob...)
		binary.LittleEndian.PutUint32(*blob, magic)
	}
	f.Add(mustMarshal(f, old))
	// And as a client from before seeded keys would frame it.
	unseeded := honest
	for blob, magic := range map[*[]byte]uint32{&unseeded.RelinKey: 0x5AF7CC10, &unseeded.RotationKeys: 0x5AF7CC0F} {
		*blob = append([]byte(nil), *blob...)
		binary.LittleEndian.PutUint32(*blob, magic)
	}
	f.Add(mustMarshal(f, unseeded))
	// The server reads the magic and the model blob before anything else and
	// sizes the rest from the model: the prefix alone, the prefix cut inside
	// the model, an unknown model, a model reference over maxModelRef, and
	// the honest frame one byte long.
	prefix := 8 + len(honest.Model)
	f.Add(seed[:prefix])
	f.Add(seed[:prefix-1])
	f.Add(mustMarshal(f, registration{Model: "nope@1", Params: honest.Params, RelinKey: honest.RelinKey, RotationKeys: honest.RotationKeys}))
	f.Add(mustMarshal(f, registration{Model: string(make([]byte, maxModelRef+1)), Params: honest.Params}))
	f.Add(append(append([]byte(nil), seed...), 0))
	handler := srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(data)))
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
