package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// servingLit is hennbench's 128-wide serving literal: LogN 10, ten limbs,
// three special primes.
var servingLit = ckks.ParametersLiteral{LogN: 10, LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: []int{55, 55, 55}, LogScale: 45}

// goldenFrameDigest is the SHA-256 of the registration frame for
// servingLit's keys from seed 28 over goldenFrameSteps. It was taken at the
// commit before the frame was written in one pass, where the client
// marshaled each key set and then copied both into the frame: the one-pass
// writer must send the same bytes. It was re-pinned when the rotation-key
// set lost its trailing key flag: the frame moved by that flag and the new
// magic alone. It was re-pinned again when residues went onto the wire at
// their primes' byte widths: new key magics, a width byte per limb, 6 or 7
// bytes a residue, and the same residues.
const goldenFrameDigest = "6f5229b7946066d6826fd515f1092306c27d0e8c34cdf862e7dac550483a7a30"

var goldenFrameSteps = []int{1, 2, 3, 8, 16, 33, 60}

// TestRegistrationFrameGolden pins the frame two ways: built from keys
// generated whole and then marshaled, and built the way clients build it, with
// every key generated straight into the frame. The append front-end fans the
// rotation keys across cores, so it runs on one P and on four.
func TestRegistrationFrameGolden(t *testing.T) {
	params, err := ckks.NewParameters(servingLit)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes, err := servingLit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, frame []byte) {
		t.Helper()
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != goldenFrameDigest {
			t.Errorf("registration frame: %d bytes digest %s, want %s", len(frame), got, goldenFrameDigest)
		}
		if want := frameSize("golden@1", paramBytes, params, len(goldenFrameSteps)); len(frame) != want || cap(frame) != want {
			t.Errorf("frame of %d bytes in a %d-byte buffer; frameSize says %d", len(frame), cap(frame), want)
		}
	}
	t.Run("marshaled", func(t *testing.T) {
		kg := ckks.NewKeyGenerator(params, 28)
		sk := kg.GenSecretKey()
		check(t, marshalRegistration("golden@1", paramBytes, params,
			kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, goldenFrameSteps, false)))
	})
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("generated-into-frame/GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			kg := ckks.NewKeyGenerator(params, 28)
			check(t, keysIntoFrame(kg, kg.GenSecretKey(), "golden@1", paramBytes, params, goldenFrameSteps))
		})
	}
}

// marshalRegistration builds the frame from keys generated whole, a_d and
// b_d in fresh polys, each key then packed into the frame under params: the
// reference keysIntoFrame must match byte for byte.
func marshalRegistration(ref string, paramBytes []byte, params *ckks.Parameters, rlk *ckks.RelinearizationKey, rks *ckks.RotationKeySet) []byte {
	return appendRegistration(make([]byte, 0, frameSize(ref, paramBytes, params, len(rks.Steps()))), ref, paramBytes,
		func(b []byte) []byte { return rlk.AppendWire(b, params) },
		func(b []byte) []byte { return rks.AppendWire(b, params) })
}

// TestKeysIntoFrameMatchesMarshaled: generating the keys straight into the
// frame sends the bytes that generating them whole and marshaling them sent,
// with the public key drawn in between as a client draws it, for the demo
// model and the 128-wide serving literal over three seeds.
func TestKeysIntoFrameMatchesMarshaled(t *testing.T) {
	demo, err := registry.DemoModel(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1}, demo)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dep := srv.reg.List()[0]
	served, err := ckks.NewParameters(servingLit)
	if err != nil {
		t.Fatal(err)
	}
	servedBytes, err := servingLit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, ref  string
		params     *ckks.Parameters
		paramBytes []byte
		steps      []int
	}{
		{"demo", dep.Ref(), dep.Params(), dep.ParamBytes(), dep.Rotations()},
		{"servingLit", "golden@1", served, servedBytes, goldenFrameSteps},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			kg := ckks.NewKeyGenerator(tc.params, seed)
			sk := kg.GenSecretKey()
			kg.GenPublicKey(sk)
			want := marshalRegistration(tc.ref, tc.paramBytes, tc.params,
				kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, tc.steps, false))
			kg = ckks.NewKeyGenerator(tc.params, seed)
			sk = kg.GenSecretKey()
			kg.GenPublicKey(sk)
			if got := keysIntoFrame(kg, sk, tc.ref, tc.paramBytes, tc.params, tc.steps); !bytes.Equal(got, want) {
				t.Errorf("%s, seed %d: the %d-byte frame generated into place differs from the %d-byte marshaled one",
					tc.name, seed, len(got), len(want))
			}
		}
	}
}

// allocatedPerRun is the bytes f allocates per call once warm, on one P with
// the collector off (so the ring pools keep what they are given), as the
// pool steady-state tests measure.
func allocatedPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFrameAllocBound: a client builds its registration frame by marshaling
// each key into the frame's one exactly sized buffer, so beyond the keys it
// already holds it allocates the payload once. Marshaling each key set and
// then copying both into the frame allocated it twice.
func TestFrameAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	params, err := ckks.NewParameters(servingLit)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes, err := servingLit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 28)
	sk := kg.GenSecretKey()
	rlk, rks := kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, goldenFrameSteps, false)
	var frame []byte
	perRun := allocatedPerRun(3, func() {
		frame = marshalRegistration("golden@1", paramBytes, params, rlk, rks)
	})
	t.Logf("a %d-byte frame allocates %.0f bytes (%.3fx)", len(frame), perRun, perRun/float64(len(frame)))
	if perRun > 1.05*float64(len(frame)) {
		t.Errorf("building a %d-byte frame allocates %.0f bytes, over 1.05x the payload", len(frame), perRun)
	}
}

// TestKeysIntoFrameAllocBound: a client generates its keys straight into the
// frame, each digit's a_d, e_d and b_d in pooled scratch, so generating both
// keys allocates the frame and little else. Generating the keys whole and
// then marshaling them allocates every a_d and b_d besides the frame: about
// 3x.
func TestKeysIntoFrameAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	params, err := ckks.NewParameters(servingLit)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes, err := servingLit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 28)
	sk := kg.GenSecretKey()
	var frame []byte
	perRun := allocatedPerRun(3, func() {
		frame = keysIntoFrame(kg, sk, "golden@1", paramBytes, params, goldenFrameSteps)
	})
	whole := allocatedPerRun(3, func() {
		marshalRegistration("golden@1", paramBytes, params,
			kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, goldenFrameSteps, false))
	})
	t.Logf("a %d-byte frame: generating the keys into it allocates %.0f bytes (%.3fx), generating them whole and marshaling %.0f (%.3fx)",
		len(frame), perRun, perRun/float64(len(frame)), whole, whole/float64(len(frame)))
	if perRun > 1.05*float64(len(frame)) {
		t.Errorf("generating keys into a %d-byte frame allocates %.0f bytes, over 1.05x the frame", len(frame), perRun)
	}
}

// TestRegisterAllocBound: the server holds a registration to the size its
// model fixes and reads it into one buffer of that size, so a registration
// allocates the body once, the b_d decoded out of it once, and the a_d
// expanded from their seeds once, and a session's fixed cost. Decoded b_d and
// expanded a_d are 8 bytes a residue, half of EvaluationKeysSize each; the
// body packs residues to 6 or 7 bytes. The slack is a tenth of the body, as
// when the three were each the payload's size and the bound read 3.1x the
// payload. Growing a buffer as the body arrived allocated the body 2.25
// times: 4.09x the payload in all here, 4.26x on the 128-wide model.
func TestRegisterAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	model, err := registry.DemoModel(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1}, model)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dep := srv.reg.List()[0]
	kg := ckks.NewKeyGenerator(dep.Params(), 28)
	sk := kg.GenSecretKey()
	frame := marshalRegistration(dep.Ref(), dep.ParamBytes(), dep.Params(),
		kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, dep.Rotations(), false))
	handler := srv.Handler()
	perRun := allocatedPerRun(3, func() {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(frame)))
		if rec.Code != http.StatusOK {
			t.Fatalf("honest frame: %d %s", rec.Code, rec.Body)
		}
		srv.closeSessions(func(*session) bool { return true })
	})
	keys := float64(dep.Params().EvaluationKeysSize(len(dep.Rotations()))) // decoded b_d and expanded a_d
	bound := 1.1*float64(len(frame)) + keys
	t.Logf("a %d-byte registration of %.0f key bytes allocates %.0f bytes (%.2fx the body, %.3fx the bound)",
		len(frame), keys, perRun, perRun/float64(len(frame)), perRun/bound)
	if perRun > bound {
		t.Errorf("registering a %d-byte frame allocates %.0f bytes, over the body, its %.0f key bytes and a tenth of the body (%.0f)",
			len(frame), perRun, keys, bound)
	}
}

// TestInferReadAllocBound: an infer body is read into one buffer of the
// model's one ciphertext size, so reading it allocates the ciphertext once. Growing a buffer as it arrived allocated it
// 3.2 times. The ciphertext is servingLit's, large enough that rounding its
// buffer up to whole pages stays inside the bound.
func TestInferReadAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	params, err := ckks.NewParameters(servingLit)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 28)
	pt, err := ckks.NewEncoder(params).EncodeReals(make([]float64, params.Slots()), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	body := ckks.NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), 28).Encrypt(pt).AppendWire(nil, params)
	const runs = 4
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	next := 0
	perRun := allocatedPerRun(runs, func() {
		data, ok := readSized(rec, reqs[next], nil, int64(params.CiphertextWireSize(params.MaxLevel())), "ciphertext")
		next++
		if !ok || len(data) != len(body) {
			t.Fatalf("reading a %d-byte ciphertext: ok %v, %d bytes", len(body), ok, len(data))
		}
	})
	t.Logf("a %d-byte ciphertext read allocates %.0f bytes (%.3fx)", len(body), perRun, perRun/float64(len(body)))
	if perRun > 1.1*float64(len(body)) {
		t.Errorf("reading a %d-byte ciphertext allocates %.0f bytes, over 1.1x", len(body), perRun)
	}
}
