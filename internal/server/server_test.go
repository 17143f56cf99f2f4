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
	"net/url"
	"runtime"
	"slices"
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

// TestSeedRebuildsSessionKeys pins the coupling hennbench's traced pass
// rests on: a session's secret is the first draw of NewKeyGenerator(params,
// seed), so a caller holding only the seed and the model's parameters
// rebuilds sk (and a public key under it) the way bench/traced.go does. A key
// generator that reorders its sampler draws breaks that; this test then
// decrypts garbage. It encrypts with its own encryptor, sends the ciphertext
// through the registered session and checks the decryption against the
// plaintext model.
func TestSeedRebuildsSessionKeys(t *testing.T) {
	model, _, ts := newTestServer(t)
	ctx := context.Background()
	const seed = 4242
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	info := sess.Model()
	var lit ckks.ParametersLiteral
	if err := lit.UnmarshalBinary(info.Params); err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, kg.GenPublicKey(sk), 8)
	decr := ckks.NewDecryptor(params, sk)

	rng := rand.New(rand.NewSource(6))
	x := make([]float64, params.Slots())
	for i := range x[:info.InputDim] {
		x[i] = rng.Float64()*2 - 1
	}
	pt, err := enc.EncodeReals(x, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.InferCiphertext(ctx, encr.Encrypt(pt))
	if err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReals(decr.Decrypt(out))[:info.OutputDim]
	want := model.MLP.InferPlain(x[:info.InputDim])[:model.OutputDim]
	for i := range want {
		if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
			t.Fatalf("logit %d: rebuilt keys decrypt %g, plain %g", i, got[i], want[i])
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

// registration is a registration body's three payloads as a test builds
// them, well-formed or not (see frame.go for the layout).
type registration struct {
	Params, RelinKey, RotationKeys []byte
}

// frameFor builds the registration body a client would send for the test
// server's model with keys from kg covering steps, packed under kg's
// parameters.
func frameFor(srv *Server, kg *ckks.KeyGenerator, sk *ckks.SecretKey, steps []int) registration {
	return registration{Params: srv.reg.List()[0].ParamBytes(),
		RelinKey:     streamed(func(w io.Writer) error { return kg.WriteRelinearizationKey(w, sk) }),
		RotationKeys: streamed(func(w io.Writer) error { return kg.WriteRotationKeys(w, sk, steps) })}
}

// streamed is the bytes write puts on a stream; writing to memory cannot
// fail.
func streamed(write func(io.Writer) error) []byte {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// marshalFrame lays reg's payloads back to back as they stand, well-formed
// or not.
func marshalFrame(reg registration) []byte {
	return slices.Concat(reg.Params, reg.RelinKey, reg.RotationKeys)
}

// retiredFrame lays reg out as clients did before the route named the model:
// a magic, the model and each payload behind a u32 length.
func retiredFrame(ref string, reg registration) []byte {
	var w wire.Writer
	w.U32(0x5AF7CC0D)
	w.Blob([]byte(ref))
	w.Blob(reg.Params)
	w.Blob(reg.RelinKey)
	w.Blob(reg.RotationKeys)
	return w
}

// registerPath is the registration route for the model ref names.
func registerPath(ref string) string { return "/v1/sessions?model=" + url.QueryEscape(ref) }

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
	honest := frameFor(srv, kg, sk, steps)
	honestBytes := marshalFrame(honest)

	cases := map[string][]byte{
		"wrong magic":    append([]byte{0x0F}, honestBytes[1:]...),
		"legacy JSON":    []byte(`{"model":"","params":"AQID","publicKey":"","relinKey":"","rotationKeys":""}`),
		"trailing byte":  append(append([]byte(nil), honestBytes...), 0),
		"empty body":     {},
		"params differ":  marshalFrame(registration{Params: []byte{1, 2, 3}, RelinKey: honest.RelinKey, RotationKeys: honest.RotationKeys}),
		"keys swapped":   marshalFrame(registration{Params: honest.Params, RelinKey: honest.RotationKeys, RotationKeys: honest.RelinKey}),
		"missing step":   marshalFrame(frameFor(srv, kg, sk, steps[1:])),
		"extra step":     marshalFrame(frameFor(srv, kg, sk, append([]int{31}, steps...))), // the 16x8x4 demo model never rotates by 31
		"garbage in key": marshalFrame(registration{Params: honest.Params, RelinKey: []byte{9}, RotationKeys: honest.RotationKeys}),
	}

	// Truncation at every payload boundary, and inside every payload's magic.
	for off, payloads := 0, [][]byte{honest.Params, honest.RelinKey, honest.RotationKeys}; len(payloads) > 0; payloads = payloads[1:] {
		cases[fmt.Sprintf("cut inside the magic at %d", off)] = honestBytes[:off+2]
		off += len(payloads[0])
		if len(payloads) > 1 {
			cases[fmt.Sprintf("cut at the payload boundary %d", off)] = honestBytes[:off]
		}
	}
	cases["cut one byte short"] = honestBytes[:len(honestBytes)-1]

	// A duplicate step: the single-key set's entry (step | digits), twice.
	one := streamed(func(w io.Writer) error { return kg.WriteRotationKeys(w, sk, steps[:1]) })
	entry := one[8:] // after (magic | count)
	var dup wire.Writer
	dup.Bytes(one[:4])
	dup.U32(2)
	dup.Bytes(entry)
	dup.Bytes(entry)
	cases["duplicate step"] = marshalFrame(registration{Params: honest.Params, RelinKey: honest.RelinKey, RotationKeys: dup})

	// Keys that decode cleanly but were built for other parameters must be
	// refused here, not panic the key-switch loop at inference time.
	kgHalf, skHalf := keyGen(t, srv, 3, func(lit *ckks.ParametersLiteral) { lit.LogN-- })
	cases["wrong-N digits"] = marshalFrame(frameFor(srv, kgHalf, skHalf, steps))
	kgShallow, skShallow := keyGen(t, srv, 3, func(lit *ckks.ParametersLiteral) { lit.LogQ = lit.LogQ[:3] })
	cases["shallower chain"] = marshalFrame(frameFor(srv, kgShallow, skShallow, steps))

	// So must keys built for another gadget on the right chain: one special
	// prime where the model prescribes three gives a digit per chain prime
	// and single-limb P components; and a key whose every P component is a
	// limb short decodes cleanly too (its digits agree with each other).
	kgOne, skOne := keyGen(t, srv, 3, func(lit *ckks.ParametersLiteral) { lit.LogP = lit.LogP[:1] })
	cases["digits of another gadget"] = marshalFrame(frameFor(srv, kgOne, skOne, steps))
	short := kg.GenRelinearizationKey(sk)
	for i := range short.Digits {
		d := &short.Digits[i]
		d.BP = d.BP.Truncate(d.BP.Level() - 1)
	}
	hostile := honest
	hostile.RelinKey = short.AppendWire(nil, dep.Params())
	cases["P components a limb short"] = marshalFrame(hostile)

	// A client from before residues were packed sends every residue in 8
	// bytes: its frame is longer than the model's, and refused on length
	// alone.
	eight := honest
	var err error
	if eight.RelinKey, err = kg.GenRelinearizationKey(sk).MarshalBinary(); err == nil {
		eight.RotationKeys, err = kg.GenRotationKeys(sk, steps, false).MarshalBinary()
	}
	if err != nil {
		t.Fatal(err)
	}
	cases["every residue in 8 bytes"] = marshalFrame(eight)

	// Residue widths the decoder refuses (0, 2 and 9 bytes) on the first limb
	// of each key blob, and widths that shift a byte between its first two
	// limbs: the frame keeps its length, and the widened limb reads residues
	// at or above its prime.
	for _, k := range []struct {
		name string
		at   int // the first poly's first width byte
		blob func(*registration) *[]byte
	}{
		{"relin key", 4 + 32 + 4 + 8, func(r *registration) *[]byte { return &r.RelinKey }},
		{"rotation keys", 4 + 4 + 4 + 32 + 4 + 8, func(r *registration) *[]byte { return &r.RotationKeys }},
	} {
		blob := *k.blob(&honest)
		w0, w1 := blob[k.at], blob[k.at+1]
		for name, widths := range map[string][]byte{"width 0": {0}, "width 2": {2}, "width 9": {9},
			"widths shifted toward limb 0": {w0 + 1, w1 - 1}, "widths shifted toward limb 1": {w0 - 1, w1 + 1}} {
			hostile = honest
			*k.blob(&hostile) = bytes.Clone(blob)
			copy((*k.blob(&hostile))[k.at:], widths)
			cases[k.name+" "+name] = marshalFrame(hostile)
		}
	}

	// Payloads from before grouped digits, keys from before seeds, rotation
	// keys from before their trailing key flag went, and keys from before
	// residues were packed to their primes' widths carry retired magics: a
	// per-prime key has the same layout as a grouped one, so the magic is all
	// that tells an old client's upload from a current one. A retired key
	// magic is a 400 naming the magic, before any poly is decoded (the
	// literal is refused earlier, by its byte comparison).
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
		"flagged rotation keys":       {&hostile.RotationKeys, 0x5AF7CC12},
		"8-byte era rotation keys":    {&hostile.RotationKeys, 0x5AF7CC14},
		"8-byte era relin key":        {&hostile.RelinKey, 0x5AF7CC13},
	} {
		hostile = honest
		*retired.blob = append([]byte(nil), *retired.blob...)
		binary.LittleEndian.PutUint32(*retired.blob, retired.magic)
		cases[name] = marshalFrame(hostile)
		retiredKeyMagics[name] = retired.blob != &hostile.Params
	}

	// Residues at or above their modulus decode cleanly and would panic the
	// first modular multiply that touches them. The last coefficient of a
	// relinearization key is in the last P limb of BP of the last digit; so
	// is the last coefficient of a rotation-key set. Its last 8 bytes hold
	// that residue and the top of the one before: all ones there puts the
	// last residue at 2^(8w)-1 for its width w, above any w-byte prime.
	hostile = honest
	hostile.RelinKey = append([]byte(nil), honest.RelinKey...)
	binary.LittleEndian.PutUint64(hostile.RelinKey[len(hostile.RelinKey)-8:], ^uint64(0))
	cases["relin residue 2^64-1"] = marshalFrame(hostile)
	hostile = honest
	hostile.RotationKeys = append([]byte(nil), honest.RotationKeys...)
	binary.LittleEndian.PutUint64(hostile.RotationKeys[len(hostile.RotationKeys)-8:], ^uint64(0))
	cases["rotation residue 2^64-1"] = marshalFrame(hostile)

	// Every row so far names the model and declares its true length. The
	// size rows do not declare it, or send no length at all (chunked, length
	// -1), so the server has only the model's exact body size to hold the
	// body to. The model rows name no model, or one the server does not
	// serve. Rows marked unread must be refused having read no body byte: the
	// query alone decides an unknown model, and a Content-Length other than
	// the body's needs no byte to refuse.
	type row struct {
		path   string // "": the model's registration route
		body   []byte
		length int64
		want   int  // 0: any 4xx
		unread bool // refused before any body byte is read
	}
	rows := map[string]row{}
	for name, body := range cases {
		rows[name] = row{body: body, length: int64(len(body))}
	}
	honestLen := int64(len(honestBytes))
	long := append(append([]byte(nil), honestBytes...), 0)
	rows["content-length one over the body"] = row{"", long, honestLen + 1, http.StatusRequestEntityTooLarge, true}
	rows["content-length one under the body"] = row{"", honestBytes[:honestLen-1], honestLen - 1, http.StatusBadRequest, true}
	rows["chunked body one byte short"] = row{"", honestBytes[:honestLen-1], -1, http.StatusBadRequest, false}
	rows["chunked body one byte long"] = row{"", long, -1, http.StatusRequestEntityTooLarge, false}
	rows["unknown model, keys unread"] = row{registerPath("nope"), honestBytes, -1, http.StatusNotFound, true}
	rows["empty model"] = row{registerPath(""), honestBytes, -1, http.StatusNotFound, true}
	rows["no model parameter"] = row{"/v1/sessions", honestBytes, -1, http.StatusNotFound, true}
	rows["a 161-byte model name"] = row{registerPath(strings.Repeat("m", 161)), honestBytes, -1, http.StatusNotFound, true}
	// A client from before the route named the model sends the same payloads
	// inside the retired frame. Declared, its length is not the body's;
	// unsized, its leading magic fails the literal.
	retired := retiredFrame(dep.Ref(), honest)
	rows["retired frame"] = row{"", retired, int64(len(retired)), http.StatusRequestEntityTooLarge, true}
	rows["retired frame, unsized"] = row{"", retired, -1, http.StatusBadRequest, false}

	handler := srv.Handler()
	baseline := dep.Refs()
	for name, c := range rows {
		body := &countingReader{r: bytes.NewReader(c.body)}
		if c.path == "" {
			c.path = registerPath(dep.Ref())
		}
		req := httptest.NewRequest(http.MethodPost, c.path, body)
		req.ContentLength = c.length
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		msg := rec.Body.Bytes()
		if rec.Code < 400 || rec.Code > 499 || (c.want != 0 && rec.Code != c.want) {
			t.Errorf("%s: got %d %s, want a 4xx (%d if set)", name, rec.Code, msg, c.want)
		}
		if c.unread && body.n > 0 {
			t.Errorf("%s: the server read %d body bytes before refusing, want none", name, body.n)
		}
		if rec.Code == http.StatusNotFound && !bytes.Contains(msg, []byte("model query parameter")) {
			t.Errorf("%s: got 404 %s, want a message naming the model query parameter", name, msg)
		}
		if name == "retired frame, unsized" && !bytes.Contains(msg, []byte("prescribed literal")) {
			t.Errorf("%s: got %d %s, want the literal refused", name, rec.Code, msg)
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

	// The honest body the cases were derived from registers.
	resp, err := http.Post(ts.URL+registerPath(dep.Ref()), "application/octet-stream", bytes.NewReader(honestBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || liveSessions(srv) != 1 {
		t.Fatalf("honest body: got %s and %d sessions", resp.Status, liveSessions(srv))
	}
	if charged, live := keyCharge(srv); charged == 0 || charged != live {
		t.Fatalf("honest body: %d bytes charged, the session holds %d", charged, live)
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
// A body claiming a gigabyte of keys — in a rotation-key set's count or in a
// polynomial header inside a key — must be refused before anything is
// allocated on the claim's say-so: the server allocates at most the body it
// was sent.
func TestRegisterLengthClaimDoesNotAllocate(t *testing.T) {
	_, srv, _ := newTestServer(t)
	dep := srv.reg.List()[0]
	handler := srv.Handler()
	kg, sk := keyGen(t, srv, 3, nil)
	honest := frameFor(srv, kg, sk, dep.Rotations())

	// Both claims sit in a body of the model's exact size (zeros behind the
	// claim), so they pass the length check and reach the key decoder: the
	// server may allocate the body the model fixes, nothing more.
	countClaim := make(wire.Writer, 0, len(honest.RotationKeys))
	countClaim.U32(0x5AF7CC17) // rotation-key-set magic
	countClaim.U32(1 << 30)    // keys, with zeros behind them
	countClaim = countClaim[:cap(countClaim)]
	inSet := marshalFrame(registration{Params: dep.ParamBytes(), RelinKey: honest.RelinKey, RotationKeys: countClaim})

	// The poly claim sits in a frame of the model's exact size (zeros behind
	// the claim), so it passes the length check and reaches the key decoder:
	// the server may allocate the frame the model fixes, nothing more.
	params := dep.Params()
	polyClaim := make(wire.Writer, 0, params.RelinKeyWireSize())
	polyClaim.U32(0x5AF7CC16)                    // relinearization-key magic
	polyClaim.Bytes(make([]byte, 32))            // the key's seed
	polyClaim.U32(64)                            // digits
	polyClaim.U32(64)                            // limbs of the first poly
	polyClaim.U32(1 << 20)                       // N of the first poly
	polyClaim.Bytes(bytes.Repeat([]byte{8}, 64)) // 8-byte residues, with zeros behind them
	polyClaim = polyClaim[:cap(polyClaim)]
	inKey := marshalFrame(registration{Params: dep.ParamBytes(), RelinKey: polyClaim,
		RotationKeys: make([]byte, params.RotationKeysWireSize(len(dep.Rotations())))})

	for name, body := range map[string][]byte{"key-count claim": inSet, "poly-level claim": inKey} {
		post := func() int {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, registerPath(dep.Ref()), bytes.NewReader(body)))
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

	// A body that declares its length and stalls — inside the literal, or
	// after it at the first key byte — holds the server to what it has read:
	// at most one key's buffer, never the body.
	whole := marshalFrame(honest)
	for name, at := range map[string]int{"inside the literal": len(dep.ParamBytes()) / 2, "at the first key byte": len(dep.ParamBytes())} {
		body := &stallingReader{data: whole[:at], stalled: make(chan struct{}), release: make(chan struct{})}
		req := httptest.NewRequest(http.MethodPost, registerPath(dep.Ref()), body)
		req.ContentLength = int64(len(whole))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			handler.ServeHTTP(rec, req)
		}()
		<-body.stalled
		runtime.ReadMemStats(&after)
		close(body.release)
		<-answered
		bound := uint64(4+params.KeyWireSize()) + 64<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > bound || uint64(len(whole)) <= bound {
			t.Errorf("%s: a %d-byte body stalled at byte %d with the server holding %d bytes, over one key's %d bytes and the slack",
				name, len(whole), at, got, params.KeyWireSize())
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: a body ending where it stalled got %d, want 400", name, rec.Code)
		}
	}
}

// stallingReader yields data, then blocks the next read until release is
// closed, reporting the stall on stalled, and ends there.
type stallingReader struct {
	data             []byte
	stalled, release chan struct{}
}

func (s *stallingReader) Read(p []byte) (int, error) {
	if len(s.data) > 0 {
		n := copy(p, s.data)
		s.data = s.data[n:]
		return n, nil
	}
	select {
	case <-s.release:
	default:
		close(s.stalled)
		<-s.release
	}
	return 0, io.EOF
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

	// A well-formed ciphertext whose last coefficient is all ones in its
	// width decodes cleanly; evaluating it would panic a worker (400). So
	// would one with a byte appended, which the decoder used to accept: a
	// top-level ciphertext is the largest body the model admits, so the byte
	// past it is refused before any decode (413), and so is the same
	// ciphertext with every residue in 8 bytes, as a client from before
	// residues were packed sends it. Widths the decoder refuses, widths that
	// shift a byte between the first two limbs at the body's size (the
	// widened limb reads residues at or above its prime) and the 8-byte era's
	// magic on a body of the right size are 400s.
	x := make([]float64, sess.params.Slots())
	pt, err := sess.enc.EncodeReals(x, sess.params.MaxLevel(), sess.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := sess.encr.Encrypt(pt)
	good := ct.AppendWire(nil, sess.params)
	eight, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	residue := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(residue[len(residue)-8:], ^uint64(0))
	const widths = 4 + 4 + 8 + 8 // magic, level, scale, the first poly's limbs and N
	withBytes := func(off int, bs ...byte) []byte {
		out := bytes.Clone(good)
		copy(out[off:], bs)
		return out
	}
	w0, w1 := good[widths], good[widths+1]
	for name, c := range map[string]struct {
		body []byte
		want int
	}{
		"residue all ones":             {residue, http.StatusBadRequest},
		"trailing byte":                {append(bytes.Clone(good), 0), http.StatusRequestEntityTooLarge},
		"every residue in 8 bytes":     {eight, http.StatusRequestEntityTooLarge},
		"width 0":                      {withBytes(widths, 0), http.StatusBadRequest},
		"width 2":                      {withBytes(widths, 2), http.StatusBadRequest},
		"width 9":                      {withBytes(widths, 9), http.StatusBadRequest},
		"widths shifted toward limb 0": {withBytes(widths, w0+1, w1-1), http.StatusBadRequest},
		"widths shifted toward limb 1": {withBytes(widths, w0-1, w1+1), http.StatusBadRequest},
		"8-byte era magic":             {withBytes(0, 0x09, 0xCC, 0xF7, 0x5A), http.StatusBadRequest},
	} {
		resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: got %s, want %d", name, resp.Status, c.want)
		}
	}
}

// TestClientBoundsResultRead: a session reads an infer result into one
// buffer of at most a top-level ciphertext's size, so a faulty server or
// proxy that streams past it — with no length or under a claimed one — gets
// an error back, not an allocation of whatever it sends. A body of exactly
// the bound is read, and fails only as the garbage it is. The registration
// answer is bounded the same way.
func TestClientBoundsResultRead(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(model.Params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 5)
	pt, err := ckks.NewEncoder(params).EncodeReals(make([]float64, params.Slots()), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := ckks.NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), 5).Encrypt(pt)
	bound := params.CiphertextWireSize(params.MaxLevel())
	for name, c := range map[string]struct {
		size    int
		declare bool
		want    string
	}{
		"streamed four times the bound": {4 * bound, false, "runs past"},
		"streamed one byte past":        {bound + 1, false, "runs past"},
		"declared four times the bound": {4 * bound, true, "runs past"},
		"streamed exactly the bound":    {bound, false, "decoding result"},
		"declared exactly the bound":    {bound, true, "decoding result"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			if c.declare {
				w.Header().Set("Content-Length", fmt.Sprint(c.size))
			}
			chunk := make([]byte, 4096)
			for sent := 0; sent < c.size; sent += len(chunk) {
				if _, err := w.Write(chunk[:min(len(chunk), c.size-sent)]); err != nil {
					return
				}
				w.(http.Flusher).Flush()
			}
		}))
		sess := &Session{c: NewClient(ts.URL, nil), id: "s", params: params}
		if _, _, err := sess.InferCiphertextTraced(context.Background(), ct); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
		ts.Close()
	}

	// A registration's answer is a session id and a model reference: an
	// endless JSON body fails at maxRegisterResponse instead of growing.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, `{"sessionID":"`)
		chunk := bytes.Repeat([]byte("a"), 4096)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			w.(http.Flusher).Flush()
		}
	}))
	defer ts.Close()
	paramBytes, err := model.Params.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	info := &ModelInfo{Name: "endless", Version: 1, Params: paramBytes, Rotations: model.MLP.ServingRotations(params.Slots())}
	if _, err := NewClient(ts.URL, nil).newSession(context.Background(), info, 5); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Errorf("endless registration answer: got %v, want an error containing %q", err, "runs past")
	}
}

// lateReadTransport takes exactly a request's declared body, answers with a
// canned registration and hands the body on unread past that length, the way
// net/http's transport may still read it to EOF after Do has returned.
type lateReadTransport chan io.ReadCloser

func (rt lateReadTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, err := io.CopyN(io.Discard, req.Body, req.ContentLength); err != nil {
		req.Body.Close()
		return nil, err
	}
	rt <- req.Body
	answer := []byte(`{"sessionID":"late","model":"late@1"}`)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(answer)),
		ContentLength: int64(len(answer)),
		Request:       req,
	}, nil
}

// TestRegistrationLeavesBodyToTransport: once a registration succeeds, the
// client leaves its body to the transport. A read past the declared length
// after newSession has returned sees EOF, not a closed pipe (regression:
// newSession closed the body as soon as Do returned, so net/http's EOF
// check could fail the connection and the answer read with it, after the
// server had registered the session).
func TestRegistrationLeavesBodyToTransport(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes, err := model.Params.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(model.Params)
	if err != nil {
		t.Fatal(err)
	}
	info := &ModelInfo{Name: "late", Version: 1, Params: paramBytes, Rotations: model.MLP.ServingRotations(params.Slots())}
	bodies := make(lateReadTransport, 1)
	c := NewClient("http://127.0.0.1:1", &http.Client{Transport: bodies})
	sess, err := c.newSession(context.Background(), info, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() != "late" {
		t.Fatalf("session id %q, want %q", sess.ID(), "late")
	}
	body := <-bodies
	defer body.Close()
	if n, err := body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("late read of the registration body: %d bytes, %v; want EOF", n, err)
	}
}

// TestInferRejectsForeignScales: a ciphertext's level and scale are client
// choices that would flow into every layer, and each linear layer keeps one
// plan, encoded for one input level and scale. So the door admits only the
// prescribed literal's top level and default scale. The model has one spare
// level, so a ciphertext one level below the top still holds the levels one
// inference consumes. Each of N distinct finite positive scales, and that
// level, is a 400 that runs no unit (no layer re-encodes) and leaks no model
// reference.
func TestInferRejectsForeignScales(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	model.Params.LogQ = append(model.Params.LogQ, model.Params.LogScale) // one spare level
	srv, err := New(Options{Workers: -1}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	sess, err := NewClient(ts, nil).NewSession(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	if _, err := sess.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	dep := srv.reg.List()[0]
	refs, ran := dep.Refs(), srv.Stats().UnitsRun

	encrypt := func(level int) *ckks.Ciphertext {
		pt, err := sess.enc.EncodeReals(make([]float64, sess.params.Slots()), level, sess.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		return sess.encr.Encrypt(pt)
	}
	top := sess.params.MaxLevel()
	if top-1 < dep.Levels() {
		t.Fatalf("the model has no spare level: top %d, needs %d", top, dep.Levels())
	}
	rows := map[string]*ckks.Ciphertext{"level MaxLevel-1": encrypt(top - 1)}
	for i := 1; i <= 32; i++ {
		ct := encrypt(top)
		ct.Scale = sess.params.DefaultScale() * (1 + float64(i)/(1<<20))
		rows[fmt.Sprintf("scale %g", ct.Scale)] = ct
	}
	for name, ct := range rows {
		body := ct.AppendWire(nil, sess.params)
		resp, err := http.Post(ts+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: got %s, want 400", name, resp.Status)
		}
	}
	if st := srv.Stats(); st.UnitsRun != ran || st.Backlog != 0 || dep.Refs() != refs {
		t.Fatalf("foreign shapes ran %d units, left backlog %d and %d model refs (baseline %d)",
			st.UnitsRun-ran, st.Backlog, dep.Refs(), refs)
	}
	if _, err := sess.Infer(ctx, x); err != nil {
		t.Fatalf("honest request after the hostile ones: %v", err)
	}
}
