package ckks

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// The tests in this file hammer one shared Evaluator/Encoder/Encryptor from
// many goroutines and assert the results are bit-identical to the serial
// path. Run them under `go test -race` (the Makefile's default) to turn
// every latent data race in the scheme's hot path into a failure.

// ctEqual reports whether two ciphertexts are bit-identical.
func ctEqual(a, b *Ciphertext) bool {
	return a.Level == b.Level && a.Scale == b.Scale &&
		a.C0.Equal(b.C0) && a.C1.Equal(b.C1)
}

// opSequence runs the mixed workload one worker applies to its ciphertext:
// Add, MulRelinRescale, Rotate and AddPlain on independent inputs. Every
// step is deterministic, so two runs over the same input must agree bitwise.
func opSequence(t testing.TB, ev *Evaluator, ct *Ciphertext, pt *Plaintext) []*Ciphertext {
	sum, err := ev.Add(ct, ct)
	if err != nil {
		t.Errorf("Add: %v", err)
		return nil
	}
	prod, err := ev.MulRelinRescale(ct, ct)
	if err != nil {
		t.Errorf("MulRelinRescale: %v", err)
		return nil
	}
	rot, err := ev.Rotate(ct, 1)
	if err != nil {
		t.Errorf("Rotate: %v", err)
		return nil
	}
	shifted, err := ev.AddPlain(ct, pt)
	if err != nil {
		t.Errorf("AddPlain: %v", err)
		return nil
	}
	resc, err := ev.Rescale(sum)
	if err != nil {
		t.Errorf("Rescale: %v", err)
		return nil
	}
	return []*Ciphertext{sum, prod, rot, shifted, resc}
}

// TestEvaluatorConcurrentSharedUse checks the tentpole property of the
// concurrency PR: one evaluator shared by many goroutines, operating on
// independent ciphertexts, produces bit-identical results to the serial
// path — with the limb worker pool both disabled and forced on.
func TestEvaluatorConcurrentSharedUse(t *testing.T) {
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, []int{1}, false)
	tc.eval.WithRotationKeys(rks)

	rng := rand.New(rand.NewSource(9))
	const nCts = 8
	cts := make([]*Ciphertext, nCts)
	pts := make([]*Plaintext, nCts)
	for i := range cts {
		pt, err := tc.enc.Encode(randomComplex(rng, tc.params.Slots(), 0.5),
			tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		cts[i], pts[i] = tc.encr.Encrypt(pt), pt
	}

	// Serial reference.
	want := make([][]*Ciphertext, nCts)
	for i, ct := range cts {
		want[i] = opSequence(t, tc.eval, ct, pts[i])
		if t.Failed() {
			t.Fatalf("serial reference failed")
		}
	}

	for _, fanOut := range []int{1, 4} {
		ring.SetParallelism(fanOut)
		const rounds = 4
		var wg sync.WaitGroup
		for g := 0; g < 2*nCts; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				i := g % nCts
				for r := 0; r < rounds; r++ {
					got := opSequence(t, tc.eval, cts[i], pts[i])
					if got == nil {
						return
					}
					for k := range got {
						if !ctEqual(got[k], want[i][k]) {
							t.Errorf("fanOut=%d ct %d op %d: concurrent result differs from serial", fanOut, i, k)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
	ring.SetParallelism(0)
	if t.Failed() {
		t.FailNow()
	}
}

// TestEncoderConcurrent shares one Encoder across goroutines encoding and
// decoding distinct vectors, checking bit-identical plaintexts vs serial.
func TestEncoderConcurrent(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(31))
	const nVecs = 8
	vecs := make([][]complex128, nVecs)
	want := make([]*Plaintext, nVecs)
	for i := range vecs {
		vecs[i] = randomComplex(rng, tc.params.Slots(), 1)
		pt, err := tc.enc.Encode(vecs[i], tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt
	}
	var wg sync.WaitGroup
	for g := 0; g < 4*nVecs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % nVecs
			pt, err := tc.enc.Encode(vecs[i], tc.params.MaxLevel(), tc.params.DefaultScale())
			if err != nil {
				t.Errorf("Encode: %v", err)
				return
			}
			if !pt.Value.Equal(want[i].Value) {
				t.Errorf("vec %d: concurrent encode differs from serial", i)
				return
			}
			dec := tc.enc.Decode(pt)
			if maxErr(dec, vecs[i]) > 1e-6 {
				t.Errorf("vec %d: decode error %g", i, maxErr(dec, vecs[i]))
			}
		}(g)
	}
	wg.Wait()
}

// TestEncryptorConcurrent shares one Encryptor (whose sampler is the only
// mutable state in the scheme's front-end) across goroutines. Sampler draws
// interleave nondeterministically, so results are checked semantically:
// every ciphertext must decrypt back to its plaintext within CKKS noise.
func TestEncryptorConcurrent(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(47))
	vals := randomComplex(rng, tc.params.Slots(), 0.5)
	pt, err := tc.enc.Encode(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct := tc.encr.Encrypt(pt)
			dec := tc.enc.Decode(tc.decr.Decrypt(ct))
			if e := maxErr(dec, vals); e > 1e-4 {
				t.Errorf("concurrent encrypt round-trip error %g", e)
			}
		}()
	}
	wg.Wait()
}

// TestEvaluatorConcurrentMixedWithEncode drives the full front-end —
// encode, encrypt, evaluate, decrypt, decode — concurrently over every
// shared object at once, the shape a batch-serving deployment has.
func TestEvaluatorConcurrentMixedWithEncode(t *testing.T) {
	tc := newTestContext(t, testLit)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			vals := randomComplex(rng, tc.params.Slots(), 0.4)
			pt, err := tc.enc.Encode(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
			if err != nil {
				t.Errorf("Encode: %v", err)
				return
			}
			ct := tc.encr.Encrypt(pt)
			sq, err := tc.eval.MulRelinRescale(ct, ct)
			if err != nil {
				t.Errorf("MulRelinRescale: %v", err)
				return
			}
			dec := tc.enc.Decode(tc.decr.Decrypt(sq))
			for i := range vals {
				want := vals[i] * vals[i]
				if d := dec[i] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-6 {
					t.Errorf("worker %d slot %d: square mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
