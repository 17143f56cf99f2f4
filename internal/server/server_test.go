package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// testLogN keeps the ring small (insecure but structurally identical) so the
// register -> infer round trip stays fast under the race detector.
const testLogN = 8

func newTestServer(t testing.TB) (*registry.Model, *Server, *httptest.Server) {
	t.Helper()
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: -1}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return model, srv, ts
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// TestRegisterInferDecrypt is the end-to-end protocol test: the client
// generates keys under the prescribed parameters, registers over HTTP,
// ships an encrypted input and decrypts a prediction that matches the
// plaintext reference inference.
func TestRegisterInferDecrypt(t *testing.T) {
	model, _, ts := newTestServer(t)
	ctx := context.Background()

	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, model.InputDim)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		got, err := sess.Infer(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		want := model.MLP.InferPlain(x)[:model.OutputDim]
		if len(got) != len(want) {
			t.Fatalf("got %d logits, want %d", len(got), len(want))
		}
		for i := range want {
			if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
				t.Fatalf("trial %d logit %d: encrypted %g vs plain %g", trial, i, got[i], want[i])
			}
		}
		if argmax(got) != argmax(want) {
			t.Fatalf("trial %d: encrypted argmax %d != plain argmax %d", trial, argmax(got), argmax(want))
		}
	}
}

// TestConcurrentClientsBatch hammers one session from many goroutines —
// every client must get its own correct result back (results are
// order-sensitive: each input is distinct).
func TestConcurrentClientsBatch(t *testing.T) {
	model, _, ts := newTestServer(t)
	ctx := context.Background()

	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 1234)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			x := make([]float64, model.InputDim)
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			got, err := sess.Infer(ctx, x)
			if err != nil {
				errs <- err
				return
			}
			want := model.MLP.InferPlain(x)[:model.OutputDim]
			for i := range want {
				if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
					t.Errorf("client %d logit %d: encrypted %g vs plain %g", c, i, got[i], want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// keyGen returns a key generator (and its secret key) under a variant of the
// test model's parameter literal.
func keyGen(t testing.TB, srv *Server, seed int64, vary func(*ckks.ParametersLiteral)) (*ckks.KeyGenerator, *ckks.SecretKey) {
	t.Helper()
	var lit ckks.ParametersLiteral
	if err := lit.UnmarshalBinary(srv.reg.List()[0].ParamBytes()); err != nil {
		t.Fatal(err)
	}
	if vary != nil {
		vary(&lit)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, seed)
	return kg, kg.GenSecretKey()
}

// frameFor builds the registration frame a client would send for the test
// server's model with keys from kg covering steps.
func frameFor(t testing.TB, srv *Server, kg *ckks.KeyGenerator, sk *ckks.SecretKey, steps []int, conj bool) registration {
	t.Helper()
	dep := srv.reg.List()[0]
	rlk, err := kg.GenRelinearizationKey(sk).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rks, err := kg.GenRotationKeys(sk, steps, conj).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return registration{Model: dep.Ref(), Params: dep.ParamBytes(), RelinKey: rlk, RotationKeys: rks}
}

// rawBlob is a key blob already in wire form.
type rawBlob []byte

func (b rawBlob) AppendBinary(dst []byte) ([]byte, error) { return append(dst, b...), nil }

// mustMarshal frames reg's fields as they stand, well-formed or not, with
// the writer clients use.
func mustMarshal(t testing.TB, reg registration) []byte {
	t.Helper()
	data, err := appendRegistration(nil, reg.Model, reg.Params, rawBlob(reg.RelinKey), rawBlob(reg.RotationKeys))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// liveSessions sums the per-model session counts of a stats snapshot.
func liveSessions(srv *Server) int {
	n := 0
	for _, m := range srv.Stats().Models {
		n += m.Sessions
	}
	return n
}

// sessionCharge is what a session of m costs the key budget: its evaluation
// keys, expanded.
func sessionCharge(t testing.TB, m *registry.Model) int64 {
	t.Helper()
	params, err := ckks.NewParameters(m.Params)
	if err != nil {
		t.Fatal(err)
	}
	return int64(params.EvaluationKeysSize(len(m.MLP.ServingRotations(params.Slots()))))
}

// keyCharge reports the key budget's charge and what the live sessions' keys
// add up to; with no registration in flight the two must agree.
func keyCharge(srv *Server) (charged, live int64) {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	for _, sess := range srv.sessions {
		live += int64(sess.dep.Params().EvaluationKeysSize(len(sess.dep.Rotations())))
	}
	return srv.keyBytes, live
}

// TestRegisterRejectsHostileFrames throws every malformed or ill-fitting
// registration at POST /v1/sessions: each must be a 4xx at the door — never a
// panic, a session, a leaked model reference, or a charge left on the key
// budget (which would lock registrations out for good).
func TestRegisterRejectsHostileFrames(t *testing.T) {
	_, srv, ts := newTestServer(t)
	dep := srv.reg.List()[0]
	steps := dep.Rotations()
	kg, sk := keyGen(t, srv, 3, nil)
	honest := frameFor(t, srv, kg, sk, steps, false)
	honestBytes := mustMarshal(t, honest)

	cases := map[string][]byte{
		"wrong magic":    append([]byte{0x0E}, honestBytes[1:]...),
		"legacy JSON":    []byte(`{"model":"","params":"AQID","publicKey":"","relinKey":"","rotationKeys":""}`),
		"trailing byte":  append(append([]byte(nil), honestBytes...), 0),
		"empty body":     {},
		"unknown model":  mustMarshal(t, registration{Model: "nope", Params: honest.Params, RelinKey: honest.RelinKey, RotationKeys: honest.RotationKeys}),
		"params differ":  mustMarshal(t, registration{Model: honest.Model, Params: []byte{1, 2, 3}, RelinKey: honest.RelinKey, RotationKeys: honest.RotationKeys}),
		"keys swapped":   mustMarshal(t, registration{Model: honest.Model, Params: honest.Params, RelinKey: honest.RotationKeys, RotationKeys: honest.RelinKey}),
		"missing step":   mustMarshal(t, frameFor(t, srv, kg, sk, steps[1:], false)),
		"extra step":     mustMarshal(t, frameFor(t, srv, kg, sk, append([]int{31}, steps...), false)), // the 16x8x4 demo model never rotates by 31
		"conjugation":    mustMarshal(t, frameFor(t, srv, kg, sk, steps, true)),
		"garbage in key": mustMarshal(t, registration{Model: honest.Model, Params: honest.Params, RelinKey: []byte{9}, RotationKeys: honest.RotationKeys}),
	}

	// Truncation at every field boundary, and inside every length prefix.
	for off, fields := 4, [][]byte{[]byte(honest.Model), honest.Params, honest.RelinKey, honest.RotationKeys}; len(fields) > 0; fields = fields[1:] {
		cases[fmt.Sprintf("cut inside the length at %d", off)] = honestBytes[:off+2]
		cases[fmt.Sprintf("cut after the length at %d", off)] = honestBytes[:off+4]
		off += 4 + len(fields[0])
		if len(fields) > 1 {
			cases[fmt.Sprintf("cut at the field boundary %d", off)] = honestBytes[:off]
		}
	}
	cases["cut before the magic ends"] = honestBytes[:3]
	cases["cut one byte short"] = honestBytes[:len(honestBytes)-1]

	// A duplicate step: the single-key set's entry (step | digits), twice.
	one, err := kg.GenRotationKeys(sk, steps[:1], false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	entry := one[8 : len(one)-4] // between (magic | count) and the conjugation flag
	var dup wire.Writer
	dup.Bytes(one[:4])
	dup.U32(2)
	dup.Bytes(entry)
	dup.Bytes(entry)
	dup.U32(0)
	cases["duplicate step"] = mustMarshal(t, registration{Model: honest.Model, Params: honest.Params, RelinKey: honest.RelinKey, RotationKeys: dup})

	// Keys that decode cleanly but were built for other parameters must be
	// refused here, not panic the key-switch loop at inference time.
	kgHalf, skHalf := keyGen(t, srv, 3, func(lit *ckks.ParametersLiteral) { lit.LogN-- })
	cases["wrong-N digits"] = mustMarshal(t, frameFor(t, srv, kgHalf, skHalf, steps, false))
	kgShallow, skShallow := keyGen(t, srv, 3, func(lit *ckks.ParametersLiteral) { lit.LogQ = lit.LogQ[:3] })
	cases["shallower chain"] = mustMarshal(t, frameFor(t, srv, kgShallow, skShallow, steps, false))

	// So must keys built for another gadget on the right chain: one special
	// prime where the model prescribes three gives a digit per chain prime
	// and single-limb P components; and a key whose every P component is a
	// limb short decodes cleanly too (its digits agree with each other).
	kgOne, skOne := keyGen(t, srv, 3, func(lit *ckks.ParametersLiteral) { lit.LogP = lit.LogP[:1] })
	cases["digits of another gadget"] = mustMarshal(t, frameFor(t, srv, kgOne, skOne, steps, false))
	short := kg.GenRelinearizationKey(sk)
	for i := range short.Digits {
		d := &short.Digits[i]
		d.BP = d.BP.Truncate(d.BP.Level() - 1)
	}
	hostile := honest
	if hostile.RelinKey, err = short.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	cases["P components a limb short"] = mustMarshal(t, hostile)

	// Payloads from before grouped digits, and keys from before seeds, carry
	// retired magics: a per-prime key has the same layout as a grouped one,
	// so the magic is all that tells an old client's upload from a current
	// one. A retired key magic is a 400 naming the magic, before any poly is
	// decoded (the literal is refused earlier, by its byte comparison).
	retiredKeyMagics := map[string]bool{}
	for name, retired := range map[string]struct {
		blob  *[]byte
		magic uint32
	}{
		"per-prime era literal":       {&hostile.Params, 0x5AF7CC05},
		"per-prime era rotation keys": {&hostile.RotationKeys, 0x5AF7CC06},
		"per-prime era relin key":     {&hostile.RelinKey, 0x5AF7CC0B},
		"unseeded rotation keys":      {&hostile.RotationKeys, 0x5AF7CC0F},
		"unseeded relin key":          {&hostile.RelinKey, 0x5AF7CC10},
	} {
		hostile = honest
		*retired.blob = append([]byte(nil), *retired.blob...)
		binary.LittleEndian.PutUint32(*retired.blob, retired.magic)
		cases[name] = mustMarshal(t, hostile)
		retiredKeyMagics[name] = retired.blob != &hostile.Params
	}

	// Residues at or above their modulus decode cleanly and would panic the
	// first modular multiply that touches them. The last coefficient of a
	// relinearization key is in the last P limb of AP of the last digit; of
	// a rotation-key set, just before the conjugation flag.
	hostile = honest
	hostile.RelinKey = append([]byte(nil), honest.RelinKey...)
	binary.LittleEndian.PutUint64(hostile.RelinKey[len(hostile.RelinKey)-8:], ^uint64(0))
	cases["relin residue 2^64-1"] = mustMarshal(t, hostile)
	hostile = honest
	hostile.RotationKeys = append([]byte(nil), honest.RotationKeys...)
	binary.LittleEndian.PutUint64(hostile.RotationKeys[len(hostile.RotationKeys)-12:], ^uint64(0))
	cases["rotation residue 2^64-1"] = mustMarshal(t, hostile)

	// Every row so far declares its true length. The size rows do not, or
	// send no length at all (chunked, length -1), so the server has only the
	// model's exact frame size to hold the body to. Rows with a read bound
	// must be refused having read no more than the frame's prefix: the model
	// alone decides an unknown model, and a Content-Length past the frame
	// needs no key byte to refuse.
	type row struct {
		body    []byte
		length  int64
		want    int // 0: any 4xx
		maxRead int // 0: unbounded
	}
	rows := map[string]row{}
	for name, body := range cases {
		rows[name] = row{body: body, length: int64(len(body))}
	}
	honestLen := int64(len(honestBytes))
	long := append(append([]byte(nil), honestBytes...), 0)
	rows["content-length one over the frame"] = row{long, honestLen + 1, http.StatusRequestEntityTooLarge, maxPrefix}
	rows["content-length one under the frame"] = row{honestBytes[:honestLen-1], honestLen - 1, http.StatusBadRequest, maxPrefix}
	rows["chunked body one byte short"] = row{honestBytes[:honestLen-1], -1, http.StatusBadRequest, 0}
	rows["chunked body one byte long"] = row{long, -1, http.StatusRequestEntityTooLarge, 0}
	rows["unknown model, keys unread"] = row{cases["unknown model"], -1, http.StatusNotFound, maxPrefix}
	rows["model ref over maxModelRef"] = row{mustMarshal(t, registration{Model: strings.Repeat("m", maxModelRef+1), Params: honest.Params,
		RelinKey: honest.RelinKey, RotationKeys: honest.RotationKeys}), -1, http.StatusBadRequest, maxPrefix}

	handler := srv.Handler()
	baseline := dep.Refs()
	for name, c := range rows {
		body := &countingReader{r: bytes.NewReader(c.body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", body)
		req.ContentLength = c.length
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		msg := rec.Body.Bytes()
		if rec.Code < 400 || rec.Code > 499 || (c.want != 0 && rec.Code != c.want) {
			t.Errorf("%s: got %d %s, want a 4xx (%d if set)", name, rec.Code, msg, c.want)
		}
		if c.maxRead > 0 && body.n > c.maxRead {
			t.Errorf("%s: the server read %d body bytes before refusing, more than the %d-byte prefix", name, body.n, c.maxRead)
		}
		if retiredKeyMagics[name] && (rec.Code != http.StatusBadRequest || !bytes.Contains(msg, []byte("magic"))) {
			t.Errorf("%s: got %d %s, want a 400 naming the magic", name, rec.Code, msg)
		}
		if n, refs := liveSessions(srv), dep.Refs(); n != 0 || refs != baseline {
			t.Fatalf("%s: left %d sessions and %d model refs (baseline %d)", name, n, refs, baseline)
		}
		if charged, _ := keyCharge(srv); charged != 0 {
			t.Fatalf("%s: left %d bytes charged to the key budget", name, charged)
		}
	}

	// Refusals happen before any arithmetic, so they leave the rings' pools
	// as they found them: no poly was returned twice.
	for _, r := range []*ring.Ring{dep.Params().RingQ(), dep.Params().RingP()} {
		for level := range r.Moduli {
			seen := map[*ring.Poly]bool{}
			for i := 0; i < 64; i++ {
				p := r.GetPolyRaw(level)
				if seen[p] {
					t.Fatalf("level-%d pool handed out one poly twice after the hostile frames", level)
				}
				seen[p] = true
			}
			for p := range seen {
				r.PutPoly(p)
			}
		}
	}

	// The honest frame the cases were derived from registers.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/octet-stream", bytes.NewReader(honestBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || liveSessions(srv) != 1 {
		t.Fatalf("honest frame: got %s and %d sessions", resp.Status, liveSessions(srv))
	}
	if charged, live := keyCharge(srv); charged == 0 || charged != live {
		t.Fatalf("honest frame: %d bytes charged, the session holds %d", charged, live)
	}
}

// countingReader counts the bytes a handler has read from a request body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestRegisterLengthClaimDoesNotAllocate: lengths on the wire are claims.
// A frame claiming a gigabyte of key — at the frame level or in a polynomial
// header inside a key — must be refused before anything is allocated on the
// claim's say-so: the server allocates at most the body it was sent.
func TestRegisterLengthClaimDoesNotAllocate(t *testing.T) {
	_, srv, _ := newTestServer(t)
	dep := srv.reg.List()[0]
	handler := srv.Handler()

	var frameClaim wire.Writer
	frameClaim.U32(registrationMagic)
	frameClaim.Blob([]byte(dep.Ref()))
	frameClaim.Blob(dep.ParamBytes())
	frameClaim.U32(1 << 30) // relinKey "length", with nothing behind it

	// The poly claim sits in a frame of the model's exact size (zeros behind
	// the claim), so it passes the length check and reaches the key decoder:
	// the server may allocate the frame the model fixes, nothing more.
	params := dep.Params()
	polyClaim := make(wire.Writer, 0, params.RelinKeyWireSize())
	polyClaim.U32(0x5AF7CC13)         // relinearization-key magic
	polyClaim.Bytes(make([]byte, 32)) // the key's seed
	polyClaim.U32(64)                 // digits
	polyClaim.U32(64)                 // limbs of the first poly
	polyClaim.U32(1 << 20)            // N of the first poly, with zeros behind it
	polyClaim = polyClaim[:cap(polyClaim)]
	inKey := mustMarshal(t, registration{Model: dep.Ref(), Params: dep.ParamBytes(), RelinKey: polyClaim,
		RotationKeys: make([]byte, params.RotationKeysWireSize(len(dep.Rotations())))})

	for name, body := range map[string][]byte{"frame-level claim": frameClaim, "poly-level claim": inKey} {
		post := func() int {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
			return rec.Code
		}
		if code := post(); code != http.StatusBadRequest { // also warms lazily built state
			t.Fatalf("%s: got %d, want 400", name, code)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		post()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(body))+256<<10 {
			t.Errorf("%s: a %d-byte body made the server allocate %d bytes", name, len(body), got)
		}
	}
}

// TestSessionDelete covers the lifecycle endpoint: a closed session 404s
// further inference and can be re-registered.
func TestSessionDelete(t *testing.T) {
	model, _, ts := newTestServer(t)
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 55)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err == nil {
		t.Fatal("double delete should fail")
	}
	x := make([]float64, model.InputDim)
	if _, err := sess.Infer(ctx, x); err == nil {
		t.Fatal("inference on a deleted session should fail")
	}
	if _, err := NewClient(ts.URL, nil).NewSession(ctx, 56); err != nil {
		t.Fatalf("re-registering after delete: %v", err)
	}
}

// TestJanitorNanosecondTTL: a SessionTTL under 4 ns used to hand
// time.NewTicker a zero sweep interval, which panics the janitor goroutine
// and with it the process. The interval is floored at a millisecond: the
// server survives its sweeps and still evicts the sessions the TTL condemns
// (every session is idle longer than a nanosecond).
func TestJanitorNanosecondTTL(t *testing.T) {
	_, srv, ts := newSchedServer(t, Options{SessionTTL: time.Nanosecond})
	sess, err := NewClient(ts.URL, nil).NewSession(context.Background(), 57)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.lookup(sess.ID()) != nil {
		if time.Now().After(deadline) {
			t.Fatal("a session idle past a 1 ns TTL was never evicted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInferUnknownSessionAndHostileCiphertext covers the infer-path guards.
func TestInferUnknownSessionAndHostileCiphertext(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sessions/nope/infer", "application/octet-stream", bytes.NewReader([]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: got %s, want 404", resp.Status)
	}

	sess, err := NewClient(ts.URL, nil).NewSession(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile ciphertext: got %s, want 400", resp.Status)
	}

	// A well-formed ciphertext whose last coefficient is 2^64-1 decodes
	// cleanly; evaluating it would panic a worker. So would one with a
	// byte appended, which the decoder used to accept.
	x := make([]float64, sess.params.Slots())
	pt, err := sess.enc.EncodeReals(x, sess.params.MaxLevel(), sess.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	good, err := sess.encr.Encrypt(pt).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	residue := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(residue[len(residue)-8:], ^uint64(0))
	for name, body := range map[string][]byte{"residue 2^64-1": residue, "trailing byte": append(good, 0)} {
		resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: got %s, want 400", name, resp.Status)
		}
	}
}

// TestInferRejectsForeignScales: a ciphertext's scale is a client-chosen
// float that would flow into every layer's scale and the bias encodings the
// model's sessions share, so the door admits only the parameters' default.
// Each of N distinct finite positive scales is a 400 that runs no unit
// (nothing reaches the shared plaintext cache) and leaks no model reference.
func TestInferRejectsForeignScales(t *testing.T) {
	model, srv, ts := newTestServer(t)
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	if _, err := sess.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	dep := srv.reg.List()[0]
	// The worker releases its unit's stack reference just after sending the
	// result, so the client can return first: the baseline is the session's
	// own bind reference alone.
	deadline := time.Now().Add(10 * time.Second)
	for dep.Refs() > 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	refs, ran := dep.Refs(), srv.Stats().UnitsRun

	vec := make([]float64, sess.params.Slots())
	pt, err := sess.enc.EncodeReals(vec, sess.params.MaxLevel(), sess.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := sess.encr.Encrypt(pt)
	for i := 1; i <= 32; i++ {
		ct.Scale = sess.params.DefaultScale() * (1 + float64(i)/(1<<20))
		body, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("scale %g: got %s, want 400", ct.Scale, resp.Status)
		}
	}
	if st := srv.Stats(); st.UnitsRun != ran || st.Backlog != 0 || dep.Refs() != refs {
		t.Fatalf("foreign scales ran %d units, left backlog %d and %d model refs (baseline %d)",
			st.UnitsRun-ran, st.Backlog, dep.Refs(), refs)
	}
	if _, err := sess.Infer(ctx, x); err != nil {
		t.Fatalf("honest request after the hostile ones: %v", err)
	}
}
