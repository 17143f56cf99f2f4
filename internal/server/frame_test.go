package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
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

// goldenFrameDigest is the SHA-256 of the registration body for
// servingLit's keys from seed 28 over goldenFrameSteps. It was re-pinned
// when the route took the model: the body is retiredFrameDigest's frame with
// its magic, its model blob and its three u32 lengths cut out. Both digests
// moved when the secret and every error came to be drawn from AES-256-CTR
// keystreams rather than math/rand: other keys, in the same layout.
const goldenFrameDigest = "1d4924213a9a06bd876670f2af40e11e5b2a5135ebd78e6d6e37d67e4f3b7e78"

// retiredFrameDigest is the SHA-256 of the same keys in the retired frame,
// naming the model "golden@1": the digest the body was pinned by before the
// route took the model. That frame was first pinned at the commit before it
// was written in one pass, re-pinned when the rotation-key set lost its
// trailing key flag, and again when residues went onto the wire at their
// primes' byte widths.
const retiredFrameDigest = "09fd798121881937c780864142eb72704ff0e790279b0d33457a1af206c7468b"

var goldenFrameSteps = []int{1, 2, 3, 8, 16, 33, 60}

// TestRegistrationFrameGolden pins the body two ways: built from keys
// generated whole and then marshaled, and streamed the way clients send it,
// with every key generated straight onto the stream. The rotation keys fan
// across cores on their way to the stream, so it runs on one P and on four.
// The marshaled keys inside the retired frame still hash to its digest: the
// route change moved no key byte.
func TestRegistrationFrameGolden(t *testing.T) {
	params, err := ckks.NewParameters(servingLit)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes, err := servingLit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	check := func(t *testing.T, body []byte) {
		t.Helper()
		if got := digest(body); got != goldenFrameDigest {
			t.Errorf("registration body: %d bytes digest %s, want %s", len(body), got, goldenFrameDigest)
		}
		if want := frameSize(paramBytes, params, len(goldenFrameSteps)); len(body) != want {
			t.Errorf("body of %d bytes; frameSize says %d", len(body), want)
		}
	}
	t.Run("marshaled", func(t *testing.T) {
		kg := ckks.NewKeyGenerator(params, 28)
		sk := kg.GenSecretKey()
		rlk, rks := kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, goldenFrameSteps, false)
		check(t, marshalRegistration(paramBytes, params, rlk, rks))
		retired := retiredFrame("golden@1", registration{Params: paramBytes,
			RelinKey: rlk.AppendWire(nil, params), RotationKeys: rks.AppendWire(nil, params)})
		if got := digest(retired); got != retiredFrameDigest {
			t.Errorf("the keys in the retired frame: digest %s, want %s", got, retiredFrameDigest)
		}
	})
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("generated-into-frame/GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			kg := ckks.NewKeyGenerator(params, 28)
			check(t, clientFrame(kg, kg.GenSecretKey(), paramBytes, goldenFrameSteps))
		})
	}
}

// marshalRegistration builds the body from keys generated whole, a_d and b_d
// in fresh polys, each key then packed into the body's one buffer under
// params: the reference the streamed body must match byte for byte.
func marshalRegistration(paramBytes []byte, params *ckks.Parameters, rlk *ckks.RelinearizationKey, rks *ckks.RotationKeySet) []byte {
	w := append(make([]byte, 0, frameSize(paramBytes, params, len(rks.Steps()))), paramBytes...)
	return rks.AppendWire(rlk.AppendWire(w, params), params)
}

// clientFrame is the body a client streams with kg's keys for steps,
// collected in memory.
func clientFrame(kg *ckks.KeyGenerator, sk *ckks.SecretKey, paramBytes []byte, steps []int) []byte {
	return streamed(func(w io.Writer) error { return writeRegistration(w, kg, sk, paramBytes, steps) })
}

// TestKeysIntoFrameMatchesMarshaled: generating the keys straight onto the
// stream sends the bytes that generating them whole and marshaling them sent,
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
		name       string
		params     *ckks.Parameters
		paramBytes []byte
		steps      []int
	}{
		{"demo", dep.Params(), dep.ParamBytes(), dep.Rotations()},
		{"servingLit", served, servedBytes, goldenFrameSteps},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			kg := ckks.NewKeyGenerator(tc.params, seed)
			sk := kg.GenSecretKey()
			kg.GenPublicKey(sk)
			want := marshalRegistration(tc.paramBytes, tc.params,
				kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, tc.steps, false))
			kg = ckks.NewKeyGenerator(tc.params, seed)
			sk = kg.GenSecretKey()
			kg.GenPublicKey(sk)
			if got := clientFrame(kg, sk, tc.paramBytes, tc.steps); !bytes.Equal(got, want) {
				t.Errorf("%s, seed %d: the %d-byte streamed frame differs from the %d-byte marshaled one",
					tc.name, seed, len(got), len(want))
			}
		}
	}
}

// allocatedPerRun is the bytes f allocates per call once warm, on procs Ps
// with the collector off (so the ring pools keep what they are given), as the
// pool steady-state tests measure.
func allocatedPerRun(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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

// frameSlack is the fixed allocation the streaming bounds allow besides key
// buffers: pooled error scratch and polys per P, goroutines, and a decoded
// key set's slice and poly headers.
const frameSlack = 512 << 10

// TestKeysIntoFrameAllocBound: a client streams its keys onto the request
// body, each key generated into a buffer of its own wire size, one for the
// relinearization key and one a worker for the rotation keys, each digit's
// a_d, e_d and b_d in pooled scratch. So writing a frame allocates at most
// (workers + 1) key buffers and fixed slack, on one P and on four, however
// large the frame. Building the frame in one buffer allocated the frame;
// generating the keys whole and then marshaling them about 3x the frame.
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
	frame := frameSize(paramBytes, params, len(goldenFrameSteps))
	whole := allocatedPerRun(1, 3, func() {
		marshalRegistration(paramBytes, params,
			kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, goldenFrameSteps, false))
	})
	for _, procs := range []int{1, 4} {
		perRun := allocatedPerRun(procs, 3, func() {
			if err := writeRegistration(io.Discard, kg, sk, paramBytes, goldenFrameSteps); err != nil {
				t.Fatal(err)
			}
		})
		bound := float64((procs+1)*params.KeyWireSize() + frameSlack)
		t.Logf("a %d-byte frame of %d-byte keys, GOMAXPROCS=%d: streaming it allocates %.0f bytes (%.3fx the frame, %.3fx the bound); generating the keys whole and marshaling %.0f (%.3fx)",
			frame, params.KeyWireSize(), procs, perRun, perRun/float64(frame), perRun/bound, whole, whole/float64(frame))
		if perRun > bound {
			t.Errorf("GOMAXPROCS=%d: streaming a %d-byte frame allocates %.0f bytes, over %d key buffers and the slack (%.0f)",
				procs, frame, perRun, procs+1, bound)
		}
	}
}

// keyBufferWriter discards what it is written and records the distinct
// buffers that key-sized writes come from.
type keyBufferWriter struct {
	keyBytes int
	bufs     map[*byte]bool
}

func (w *keyBufferWriter) Write(p []byte) (int, error) {
	if len(p) == w.keyBytes {
		w.bufs[&p[0]] = true
	}
	return len(p), nil
}

// TestKeysIntoFrameHoldsOneKeyAWorker: the key bytes a streaming client
// holds are its key buffers, one for the relinearization key and one a
// worker for the rotation keys, however many keys the frame carries. Every
// key reaches the stream from one of them.
func TestKeysIntoFrameHoldsOneKeyAWorker(t *testing.T) {
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
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		w := &keyBufferWriter{keyBytes: 4 + params.KeyWireSize(), bufs: map[*byte]bool{}}
		err := writeRegistration(w, kg, sk, paramBytes, goldenFrameSteps)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.bufs) > procs+1 {
			t.Errorf("GOMAXPROCS=%d: %d keys came from %d buffers, more than %d", procs, 1+len(goldenFrameSteps), len(w.bufs), procs+1)
		}
	}
}

// TestRegisterAllocBound: the server decodes a registration's keys off the
// body one at a time, each read whole into one reused buffer of a key's wire
// size, so a registration allocates the b_d decoded, the a_d expanded from
// their seeds (the two are EvaluationKeysSize), one key's wire bytes, and a
// session's fixed cost, whatever the frame's size. Reading the body into one
// buffer of the frame's size first allocated the frame besides: 1.1x the
// body and the key bytes was the bound then.
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
	frame := marshalRegistration(dep.ParamBytes(), dep.Params(),
		kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, dep.Rotations(), false))
	handler := srv.Handler()
	perRun := allocatedPerRun(1, 3, func() {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, registerPath(dep.Ref()), bytes.NewReader(frame)))
		if rec.Code != http.StatusOK {
			t.Fatalf("honest body: %d %s", rec.Code, rec.Body)
		}
		srv.closeSessions(func(*session) bool { return true })
	})
	keys := float64(dep.Params().EvaluationKeysSize(len(dep.Rotations()))) // decoded b_d and expanded a_d
	bound := keys + float64(dep.Params().KeyWireSize()+frameSlack)
	t.Logf("a %d-byte registration of %.0f key bytes allocates %.0f bytes (%.2fx the body, %.3fx the bound)",
		len(frame), keys, perRun, perRun/float64(len(frame)), perRun/bound)
	if perRun > bound {
		t.Errorf("registering a %d-byte frame allocates %.0f bytes, over its %.0f key bytes, one key's wire bytes and the slack (%.0f)",
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
	perRun := allocatedPerRun(1, runs, func() {
		data, ok := readSized(rec, reqs[next], int64(params.CiphertextWireSize(params.MaxLevel())), "ciphertext")
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
