// Package smartpaf_bench holds the top-level benchmark harness: one
// testing.B benchmark per paper table/figure (regenerating its data at
// reduced scale) plus micro-benchmarks for the substrates that dominate
// latency (NTT, CKKS multiply, encrypted PAF ReLU). Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured discussion.
package smartpaf_bench

import (
	"io"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/experiments"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/parallel"
	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// --- substrate micro-benchmarks ---------------------------------------------

// BenchmarkNTT and BenchmarkINTT time one limb's transform at hennbench's
// ring degree: 5120 butterflies each, so ns/op ÷ 5120 is the butterfly cost.
func BenchmarkNTT(b *testing.B)  { benchLimbTransform(b, (*ring.Modulus).NTT) }
func BenchmarkINTT(b *testing.B) { benchLimbTransform(b, (*ring.Modulus).INTT) }

func benchLimbTransform(b *testing.B, transform func(*ring.Modulus, []uint64)) {
	const n = 1024
	q, err := ring.GenPrime(55, n, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, err := ring.NewModulus(q, n)
	if err != nil {
		b.Fatal(err)
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i) * 0x9e3779b97f4a7c15 % q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform(m, a)
	}
}

// --- concurrency layer: serial vs parallel substrate -------------------------

// newNTTBenchRing builds the acceptance-point ring of the concurrency PR:
// N=8192 with a full 8-limb chain.
func newNTTBenchRing(b *testing.B) (*ring.Ring, *ring.Poly) {
	b.Helper()
	const n, limbs = 8192, 8
	primes, err := ring.GenPrimes(45, n, limbs, nil)
	if err != nil {
		b.Fatal(err)
	}
	rq, err := ring.NewRing(n, primes)
	if err != nil {
		b.Fatal(err)
	}
	return rq, ring.NewSampler(rq, 3).Uniform(limbs - 1)
}

// BenchmarkNTTSerial and BenchmarkNTTParallel compare the full-chain
// forward+inverse transform with the RNS-limb worker pool off and on; the
// ratio is the PR's headline speedup on multicore machines.
func BenchmarkNTTSerial(b *testing.B) {
	rq, p := newNTTBenchRing(b)
	ring.SetParallelism(1)
	defer ring.SetParallelism(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq.NTT(p)
		rq.INTT(p)
	}
}

func BenchmarkNTTParallel(b *testing.B) {
	rq, p := newNTTBenchRing(b)
	ring.SetParallelism(0) // default: fan across GOMAXPROCS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq.NTT(p)
		rq.INTT(p)
	}
}

// BenchmarkEvaluatorShared drives one shared evaluator from b.RunParallel
// goroutines (4 per core), the serving shape the thread-safe evaluator
// enables; compare per-op time against BenchmarkCKKSMulRelinRescale.
func BenchmarkEvaluatorShared(b *testing.B) {
	bc := newBenchContext(b, 12, 6)
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := bc.eval.MulRelinRescale(bc.ct, bc.ct); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- hoisted rotations: the BSGS hot-path lever ------------------------------

// newRotationBench builds an evaluator with rotation keys for one BSGS
// baby-step block's worth of steps at serving-scale parameters.
func newRotationBench(b *testing.B) (*ckks.Evaluator, *ckks.Ciphertext, []int) {
	b.Helper()
	bc := newBenchContext(b, 12, 6)
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	kg := ckks.NewKeyGenerator(bc.params, 1)
	sk := kg.GenSecretKey()
	// The bench context's ciphertext was made under its own keys; re-encrypt
	// under this secret so the rotation keys match.
	pk := kg.GenPublicKey(sk)
	rks := kg.GenRotationKeys(sk, steps, false)
	bc.eval.WithRotationKeys(rks)
	vals := make([]float64, bc.params.Slots())
	for i := range vals {
		vals[i] = 0.25 * float64(i%16-8) / 8
	}
	pt, err := bc.enc.EncodeReals(vals, bc.params.MaxLevel(), bc.params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	return bc.eval, ckks.NewEncryptor(bc.params, pk, 2).Encrypt(pt), steps
}

// BenchmarkRotatePlain and BenchmarkRotateHoisted rotate one ciphertext by
// a full baby-step set, key-switching per rotation vs amortizing one hoisted
// decomposition across the set — the per-layer work ApplyLinearBSGS does.
// Run with -benchmem: the plain path also pins the allocation drop from
// routing applyGalois's temporaries through the ring pool.
func BenchmarkRotatePlain(b *testing.B) {
	eval, ct, steps := newRotationBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range steps {
			if _, err := eval.Rotate(ct, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRotateHoisted(b *testing.B) {
	eval, ct, steps := newRotationBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := eval.DecomposeHoisted(ct)
		for _, s := range steps {
			if _, err := eval.RotateHoisted(dec, s); err != nil {
				b.Fatal(err)
			}
		}
		dec.Release()
	}
}

// newBatchInferenceBench builds a deployed-MLP inference batch over one
// shared context.
func newBatchInferenceBench(b *testing.B, batch int) (*henn.Context, *henn.MLP, []*ckks.Ciphertext) {
	b.Helper()
	ctx, ct, lin := newLinearBench(b)
	mlp := &henn.MLP{Layers: []any{lin}}
	cts := make([]*ckks.Ciphertext, batch)
	for i := range cts {
		cts[i] = ct
	}
	return ctx, mlp, cts
}

// BenchmarkBatchInferenceSerial and BenchmarkBatchInference compare a batch
// of encrypted MLP inferences run as a serial loop vs fanned across all
// cores over the shared evaluator.
func BenchmarkBatchInferenceSerial(b *testing.B) {
	ctx, mlp, cts := newBatchInferenceBench(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.InferBatch(mlp, cts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchInference(b *testing.B) {
	ctx, mlp, cts := newBatchInferenceBench(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.InferBatch(mlp, cts, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchInferenceTelemetry re-runs the fanned batch with the full
// telemetry plane live — a CKKS stage observer feeding a labeled histogram
// and a fresh trace attached to every unit, the serving path's hot-path
// cost. Compare against BenchmarkBatchInference, whose disabled path pays
// one atomic pointer load per stage; the gap is the enabled-telemetry tax.
func BenchmarkBatchInferenceTelemetry(b *testing.B) {
	ctx, mlp, cts := newBatchInferenceBench(b, 8)
	stageLat := telemetry.NewRegistry().NewHistogramVec(
		"bench_ckks_stage_seconds", "per-stage latency under benchmark load", "stage")
	ckks.SetStageObserver(func(stage string, d time.Duration) {
		stageLat.With(stage).Record(d)
	})
	defer ckks.SetStageObserver(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := parallel.For(len(cts), parallel.Workers(-1), func(j int) error {
			tr := telemetry.NewTrace(telemetry.NewTraceID())
			_, err := henn.Unit{Ctx: ctx, MLP: mlp, CT: cts[j], Trace: tr}.Run()
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

type benchContext struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	eval   *ckks.Evaluator
	he     *hepoly.Evaluator
	ct     *ckks.Ciphertext
}

func newBenchContext(b *testing.B, logN int, levels int) *benchContext {
	b.Helper()
	logQ := make([]int, levels+1)
	logQ[0] = 55
	for i := 1; i <= levels; i++ {
		logQ[i] = 45
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: 55, LogScale: 45})
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 2)
	eval := ckks.NewEvaluator(params, rlk)
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = 0.5 * float64(i%8-4) / 4
	}
	pt, err := enc.EncodeReals(vals, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	return &benchContext{
		params: params, enc: enc, encr: encr, eval: eval,
		he: hepoly.NewEvaluator(eval),
		ct: encr.Encrypt(pt),
	}
}

func BenchmarkCKKSMulRelinRescale(b *testing.B) {
	bc := newBenchContext(b, 12, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.eval.MulRelinRescale(bc.ct, bc.ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCKKSEncode(b *testing.B) {
	bc := newBenchContext(b, 12, 6)
	vals := make([]float64, bc.params.Slots())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.enc.EncodeReals(vals, bc.params.MaxLevel(), bc.params.DefaultScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: depth accounting (and the PAF plaintext hot path) -------------

func BenchmarkTable2Depth(b *testing.B) {
	forms := paf.AllFormsWithBaseline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range forms {
			c := paf.MustNew(name)
			_ = c.Depth()
			_ = c.OpsReLU()
		}
	}
}

func BenchmarkPAFReLUPlaintext(b *testing.B) {
	c := paf.MustNew(paf.FormF1F1G1G1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ReLU(0.37)
	}
}

// --- Table 4 / Fig. 1: encrypted ReLU latency per PAF form ------------------

// benchEncryptedReLU measures one PAF's encrypted ReLU at a fixed ring so
// relative latencies across forms reproduce the Table 4 ordering.
func benchEncryptedReLU(b *testing.B, form string) {
	c := paf.MustNew(form)
	bc := newBenchContext(b, 11, hepoly.RequiredLevels(c, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.he.ReLU(c, bc.ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4ReLU_f1_g2(b *testing.B)     { benchEncryptedReLU(b, paf.FormF1G2) }
func BenchmarkTable4ReLU_f2_g2(b *testing.B)     { benchEncryptedReLU(b, paf.FormF2G2) }
func BenchmarkTable4ReLU_f2_g3(b *testing.B)     { benchEncryptedReLU(b, paf.FormF2G3) }
func BenchmarkTable4ReLU_alpha7(b *testing.B)    { benchEncryptedReLU(b, paf.FormAlpha7) }
func BenchmarkTable4ReLU_f1f1_g1g1(b *testing.B) { benchEncryptedReLU(b, paf.FormF1F1G1G1) }
func BenchmarkTable4ReLU_alpha10(b *testing.B)   { benchEncryptedReLU(b, paf.FormAlpha10) }

// --- Fig. 7: Coefficient Tuning ---------------------------------------------

func BenchmarkFig7CT(b *testing.B) {
	prof := &smartpaf.Profile{Bins: make([]float64, 64), Max: 1}
	for i := range prof.Bins {
		x := prof.BinCenter(i)
		prof.Bins[i] = 1 / (1 + 25*x*x)
	}
	c := paf.MustNew(paf.FormF1G2)
	opt := smartpaf.DefaultCTOptions()
	opt.Iterations = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = smartpaf.CoefficientTuning(c, prof, opt)
	}
}

// --- Fig. 8 / Fig. 9 / Table 3: the training pipeline ------------------------

// benchPipeline runs one full SMART-PAF pipeline on the tiny task; it is the
// unit of work behind Table 3 cells, Fig. 8 bars and Fig. 9 curves.
func benchPipeline(b *testing.B, ct, pa, at bool) {
	dcfg := data.Tiny()
	train, val := data.Generate(dcfg)
	base := nn.CNN7(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
	smartpaf.Pretrain(base, train, 3, 32, 3e-3, 1)
	snap := base.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nn.CNN7(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
		if err := m.Restore(snap); err != nil {
			b.Fatal(err)
		}
		cfg := smartpaf.DefaultConfig(paf.FormF1G2)
		cfg.CT, cfg.PA, cfg.AT = ct, pa, at
		cfg.Epochs, cfg.MaxGroupsPerStep, cfg.ProfileBatches = 1, 1, 1
		p, err := smartpaf.NewPipeline(m, train, val, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Baseline(b *testing.B) { benchPipeline(b, false, false, false) }
func BenchmarkTable3SmartPAF(b *testing.B) { benchPipeline(b, true, true, true) }

// --- static experiments end-to-end -------------------------------------------

func BenchmarkStaticExperiments(b *testing.B) {
	opt := experiments.Options{Fast: true, Seed: 1, W: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"tab2", "tab5", "tab8", "appendixB"} {
			if err := experiments.Run(id, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- nn training step (the unit of every fine-tuning epoch) -----------------

func BenchmarkResNet18TrainStep(b *testing.B) {
	dcfg := data.Tiny()
	train, _ := data.Generate(dcfg)
	m := nn.ResNet18(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
	batch := train.Batches(16, nil)[0]
	opt := nn.NewAdam(1e-3, 1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainStep(m, nn.Batch{X: batch.X, Y: batch.Y}, nil, opt)
	}
}

// --- ablation benches for DESIGN.md design choices ---------------------------

// BenchmarkAblationLinearNaive vs BenchmarkAblationLinearBSGS quantify the
// baby-step/giant-step optimization of encrypted matrix-vector products.
func newLinearBench(b *testing.B) (*henn.Context, *ckks.Ciphertext, *henn.Linear) {
	b.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: []int{55, 45, 45}, LogP: 55, LogScale: 45})
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)

	lin := &henn.Linear{In: 64, Out: 32, B: make([]float64, 32)}
	lin.W = make([][]float64, 32)
	for i := range lin.W {
		lin.W[i] = make([]float64, 64)
		for j := range lin.W[i] {
			lin.W[i][j] = float64((i+j)%7) * 0.1
		}
	}
	mlp := &henn.MLP{Layers: []any{lin}}
	steps := append(mlp.RequiredRotations(params.Slots()), mlp.RequiredRotationsBSGS(params.Slots())...)
	rks := kg.GenRotationKeys(sk, steps, false)
	eval := ckks.NewEvaluator(params, rlk).WithRotationKeys(rks)
	ctx := henn.NewContext(params, ckks.NewEncoder(params), eval)

	vec := make([]float64, params.Slots())
	for i := 0; i < 64; i++ {
		vec[i] = 0.01 * float64(i)
	}
	pt, err := ctx.Enc.EncodeReals(vec, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	return ctx, ckks.NewEncryptor(params, pk, 2).Encrypt(pt), lin
}

func BenchmarkAblationLinearNaive(b *testing.B) {
	ctx, ct, lin := newLinearBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.ApplyLinear(lin, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLinearBSGS(b *testing.B) {
	ctx, ct, lin := newLinearBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.ApplyLinearBSGS(lin, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEncoderFast vs Naive quantifies the special-FFT encoder
// against the O(n²) canonical-embedding oracle.
func BenchmarkAblationEncoderFast(b *testing.B) {
	bc := newBenchContext(b, 10, 2)
	vals := make([]complex128, bc.params.Slots())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.enc.Encode(vals, 1, bc.params.DefaultScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEncoderNaive(b *testing.B) {
	bc := newBenchContext(b, 10, 2)
	vals := make([]complex128, bc.params.Slots())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.enc.EncodeNaive(vals, 1, bc.params.DefaultScale()); err != nil {
			b.Fatal(err)
		}
	}
}
