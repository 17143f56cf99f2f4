package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/parallel"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// sink keeps the scalar kernels' results alive.
var sink uint64

// timeEach calls the given functions in order, round after round, until
// slice has passed and at least three rounds ran, and returns each function's
// median call time. Functions after the first typically undo the first, so
// that every round times it on the same state.
func timeEach(slice time.Duration, fs ...func()) []time.Duration {
	ds := make([][]float64, len(fs))
	for start := time.Now(); len(ds[0]) < 3 || time.Since(start) < slice; {
		for i, f := range fs {
			t0 := time.Now()
			f()
			ds[i] = append(ds[i], float64(time.Since(t0)))
		}
	}
	out := make([]time.Duration, len(fs))
	for i := range ds {
		out[i] = time.Duration(median(ds[i]))
	}
	return out
}

// timeIt is timeEach for one function.
func timeIt(slice time.Duration, f func()) time.Duration { return timeEach(slice, f)[0] }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocsOf reports the bytes and objects one call of f allocates, averaged
// over iters calls; the process must be otherwise idle.
func allocsOf(iters int, f func()) (bytes, objects float64) {
	before := readUsage()
	for i := 0; i < iters; i++ {
		f()
	}
	after := readUsage()
	return float64(after.allocBytes-before.allocBytes) / float64(iters),
		float64(after.mallocs-before.mallocs) / float64(iters)
}

// stageCounter counts ckks stage-observer events by stage name.
type stageCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *stageCounter) observe(stage string, _ time.Duration) {
	c.mu.Lock()
	c.n[stage]++
	c.mu.Unlock()
}

// counting runs f with the process-global ckks stage observer pointed at a
// fresh counter, and removes the observer afterwards.
func counting(f func()) map[string]int {
	c := &stageCounter{n: map[string]int{}}
	ckks.SetStageObserver(c.observe)
	defer ckks.SetStageObserver(nil)
	f()
	return c.n
}

// stageShares reads a unit trace's stage totals as the two workload-validity
// shares of unitUs: rotation work and PAF work.
func stageShares(stages []telemetry.StageSnapshot, unitUs float64) (rotation, pafShare float64) {
	for _, s := range stages {
		switch s.Name {
		case "rotate", "rotate_hoisted", "decompose_hoisted":
			rotation += float64(s.TotalUs)
		case "paf_eval", "mul_const":
			pafShare += float64(s.TotalUs)
		}
	}
	return rotation / unitUs, pafShare / unitUs
}

// checkValidity fails when a workload does not stress the layer it claims.
// The shares are properties of the workload at the benchmark's own ring
// degree; the smaller degrees the smoke test uses shift work between layers
// and are not held to them.
func checkValidity(w workload, logN int, rotation, pafShare float64) error {
	const need = 0.60
	switch {
	case logN != benchLogN:
	case w.validity == "rotation" && rotation < need:
		return fmt.Errorf("%s: rotation share of unit time is %.2f, below %.2f: the workload no longer measures rotations", w.name, rotation, need)
	case w.validity == "paf" && pafShare < need:
		return fmt.Errorf("%s: PAF share of unit time is %.2f, below %.2f: the workload no longer measures PAF evaluation", w.name, pafShare, need)
	}
	return nil
}

// layerPass times direct calls into ring, ckks, hepoly, henn, parallel and
// registry at the workload's exact parameters and levels, on an otherwise
// idle process. The ring's inner limb fan-out is off (SetParallelism(1))
// except for ring.ntt_fan_us, so each figure is one core's cost.
func layerPass(w workload, in *inputs, cfg config, budget time.Duration) (map[string]float64, error) {
	ring.SetParallelism(1)
	defer ring.SetParallelism(0)
	params, err := ckks.NewParameters(in.model.Params)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	// About thirty timed calls get a slice each; the unit-sized ones run
	// their three rounds whatever the slice, and take the rest.
	b := &layerBench{w: w, in: in, cfg: cfg, params: params, slice: budget / 60, v: map[string]float64{}}
	for _, layer := range []func(){b.registry, b.ring, b.keys, b.client, b.primitives, b.layers, b.unit} {
		if layer(); b.err != nil {
			return nil, fmt.Errorf("layer pass: %w", b.err)
		}
	}
	return b.v, nil
}

// layerBench is the layer pass's state: the metrics measured so far, the
// first error, and the key material and ciphertexts later layers build on.
type layerBench struct {
	w      workload
	in     *inputs
	cfg    config
	params *ckks.Parameters
	slice  time.Duration
	v      map[string]float64
	err    error

	sk    *ckks.SecretKey
	pk    *ckks.PublicKey
	enc   *ckks.Encoder
	eval  *ckks.Evaluator
	ctx   *henn.Context
	steps []int
	// ct is a fresh encryption of the first request at the top level,
	// hidden the first linear layer's output.
	ct, hidden *ckks.Ciphertext
}

// note keeps the first error; timed closures report through it.
func (b *layerBench) note(err error) {
	if err != nil && b.err == nil {
		b.err = err
	}
}

func (b *layerBench) must(ct *ckks.Ciphertext, err error) *ckks.Ciphertext {
	b.note(err)
	return ct
}

// registry: a bundle off the wire, compiled into a serving stack.
func (b *layerBench) registry() {
	bundle, err := b.in.model.MarshalBinary()
	if err != nil {
		b.note(err)
		return
	}
	b.v["registry.bundle_kb"] = float64(len(bundle)) / 1e3
	// Deploy warms caches held by the model, so each timed deploy gets a
	// model fresh off the wire.
	var m *registry.Model
	d := timeEach(b.slice, func() {
		m = new(registry.Model)
		b.note(m.UnmarshalBinary(bundle))
	}, func() {
		_, err := registry.New().Deploy(m)
		b.note(err)
	})
	b.v["registry.bundle_unmarshal_ms"], b.v["registry.deploy_ms"] = ms(d[0]), ms(d[1])
}

// ring: one modulus' scalar kernels and full-chain polynomial operations.
func (b *layerBench) ring() {
	n, top, rq := b.params.N(), b.params.MaxLevel(), b.params.RingQ()
	rng := rand.New(rand.NewSource(b.cfg.seed))
	q := b.params.Q()[top]
	x, y := make([]uint64, n), make([]uint64, n)
	for i := range x {
		x[i], y[i] = rng.Uint64()%q, rng.Uint64()%q
	}
	b.v["ring.mulmod_ns"] = float64(timeIt(b.slice, func() {
		for i := range x {
			sink += ring.MulMod(x[i], y[i], q)
		}
	})) / float64(n)
	yShoup, _ := bits.Div64(y[0], 0, q)
	b.v["ring.mulmod_shoup_ns"] = float64(timeIt(b.slice, func() {
		for i := range x {
			sink += ring.MulModShoup(x[i], y[0], yShoup, q)
		}
	})) / float64(n)

	sampler := ring.NewSampler(rq, b.cfg.seed)
	pa, pb, acc := sampler.Uniform(top), sampler.Uniform(top), rq.NewPoly(top)
	ntt, intt := func() { rq.NTT(pa) }, func() { rq.INTT(pa) }
	d := timeEach(2*b.slice, ntt, intt)
	b.v["ring.ntt_us"], b.v["ring.intt_us"] = us(d[0]), us(d[1])
	b.v["ring.mul_coeffs_add_us"] = us(timeIt(b.slice, func() { rq.MulCoeffsThenAdd(pa, pb, acc) }))
	ring.SetParallelism(0)
	b.v["ring.ntt_fan_us"] = us(timeEach(b.slice, ntt, intt)[0])
	ring.SetParallelism(1)
}

// keys: a session's evaluation keys, generated, marshaled and read back.
func (b *layerBench) keys() {
	b.steps = b.in.model.MLP.ServingRotations(b.params.Slots())
	var (
		rlk *ckks.RelinearizationKey
		rks *ckks.RotationKeySet
	)
	b.v["ckks.keygen_ms"] = ms(timeIt(0, func() {
		kg := ckks.NewKeyGenerator(b.params, b.cfg.seed)
		b.sk = kg.GenSecretKey()
		b.pk = kg.GenPublicKey(b.sk)
		rlk = kg.GenRelinearizationKey(b.sk)
		rks = kg.GenRotationKeys(b.sk, b.steps, false)
	}))
	var rlkBytes, rksBytes []byte
	b.v["ckks.evalkeys_marshal_ms"] = ms(timeIt(0, func() {
		var err error
		rlkBytes, err = rlk.MarshalBinary()
		b.note(err)
		rksBytes, err = rks.MarshalBinary()
		b.note(err)
	}))
	b.v["ckks.evalkeys_mb"] = float64(len(rlkBytes)+len(rksBytes)) / 1e6
	b.v["ckks.evalkeys_unmarshal_ms"] = ms(timeIt(0, func() {
		b.note(new(ckks.RelinearizationKey).UnmarshalBinary(rlkBytes))
		b.note(new(ckks.RotationKeySet).UnmarshalBinary(rksBytes))
	}))
	b.enc = ckks.NewEncoder(b.params)
	b.eval = ckks.NewEvaluator(b.params, rlk).WithRotationKeys(rks)
	b.ctx = henn.NewContext(b.params, b.enc, b.eval)
}

// client: what Session.Infer does to a request before the wire.
func (b *layerBench) client() {
	top := b.params.MaxLevel()
	encr := ckks.NewEncryptor(b.params, b.pk, b.cfg.seed^0x7e57)
	vec := make([]float64, b.params.Slots())
	copy(vec, b.in.x[0][0])
	var pt *ckks.Plaintext
	b.v["ckks.encode_us"] = us(timeIt(b.slice, func() {
		var err error
		pt, err = b.enc.EncodeReals(vec, top, b.params.DefaultScale())
		b.note(err)
	}))
	if b.err != nil {
		return
	}
	b.v["ckks.encrypt_ms"] = ms(timeIt(b.slice, func() { b.ct = encr.Encrypt(pt) }))
	var wire []byte
	b.v["ckks.ct_marshal_us"] = us(timeIt(b.slice, func() {
		var err error
		wire, err = b.ct.MarshalBinary()
		b.note(err)
	}))
	b.v["ckks.ct_kb"] = float64(len(wire)) / 1e3
	b.v["ckks.ct_unmarshal_us"] = us(timeIt(b.slice, func() {
		b.note(new(ckks.Ciphertext).UnmarshalBinary(wire))
	}))
}

// primitives: the ckks operations of a linear layer, at the top level.
func (b *layerBench) primitives() {
	top, eval := b.params.MaxLevel(), b.eval
	step := b.steps[len(b.steps)-1]
	rotate := func() { b.must(eval.Rotate(b.ct, step)) }
	b.v["ckks.rotate_ms"] = ms(timeIt(b.slice, rotate))
	rotBytes, _ := allocsOf(3, rotate)
	b.v["ckks.rotate_alloc_kb"] = rotBytes / 1e3
	var dec *ckks.HoistedDecomposition
	b.v["ckks.decompose_hoisted_ms"] = ms(timeEach(b.slice,
		func() { dec = eval.DecomposeHoisted(b.ct) },
		func() { dec.Release() })[0])
	dec = eval.DecomposeHoisted(b.ct)
	b.v["ckks.rotate_hoisted_ms"] = ms(timeIt(b.slice, func() { b.must(eval.RotateHoisted(dec, step)) }))
	dec.Release()
	diag, err := b.enc.EncodeReals(b.in.x[0][0], top, float64(b.params.Q()[top]))
	if err != nil {
		b.note(err)
		return
	}
	var prod *ckks.Ciphertext
	b.v["ckks.mul_plain_us"] = us(timeIt(b.slice, func() { prod = eval.MulPlain(b.ct, diag) }))
	b.v["ckks.rescale_ms"] = ms(timeIt(b.slice, func() { b.must(eval.Rescale(prod)) }))
}

// layers: the first linear layer at the top level, then the activation and
// its PAF at the levels that leaves.
func (b *layerBench) layers() {
	mlp := b.in.model.MLP
	lin, act := mlp.Layers[0].(*henn.Linear), mlp.Layers[1].(*henn.Activation)
	linear := b.ctx.ApplyLinear
	if mlp.PreferBSGS(b.params.Slots()) {
		linear = b.ctx.ApplyLinearBSGS
	}
	b.v["henn.linear_ms"] = ms(timeIt(b.slice, func() { b.hidden = b.must(linear(lin, b.ct)) }))
	if b.err != nil {
		return
	}
	b.v["henn.activation_ms"] = ms(timeIt(b.slice, func() { b.must(b.ctx.ApplyActivation(act, b.hidden)) }))
	normed := b.must(b.eval.MulConstTargetScale(b.hidden, 1/act.Scale, b.hidden.Scale))
	if b.err != nil {
		return
	}
	mulRelin := func() { b.must(b.eval.MulRelinRescale(normed, normed)) }
	b.v["ckks.mul_relin_rescale_ms"] = ms(timeIt(b.slice, mulRelin))
	mulBytes, _ := allocsOf(3, mulRelin)
	b.v["ckks.mul_relin_alloc_kb"] = mulBytes / 1e3
	var activated *ckks.Ciphertext
	relu := func() { activated = b.must(b.ctx.HE.ReLUScaled(act.PAF, normed, act.Scale)) }
	b.v["hepoly.relu_ms"] = ms(timeIt(b.slice, relu))
	b.v["hepoly.relu_ct_mults"] = float64(counting(relu)["key_switch"])
	if b.err == nil {
		b.v["hepoly.relu_levels"] = float64(normed.Level - activated.Level)
	}
}

// unit: Unit.Run without a server — its time, allocations and exact counts,
// the op-count model beside it, and the two ways internal/parallel spreads
// units over cores.
func (b *layerBench) unit() {
	mlp, top := b.in.model.MLP, b.params.MaxLevel()
	unit := henn.Unit{Ctx: b.ctx, MLP: mlp, CT: b.ct}
	var out *ckks.Ciphertext
	runUnit := func() { out = b.must(unit.Run()) }
	unitTime := timeIt(b.slice, runUnit)
	b.v["henn.unit_ms"] = ms(unitTime)
	unitBytes, unitObjs := allocsOf(2, runUnit)
	b.v["henn.unit_alloc_mb"] = unitBytes / 1e6
	b.v["henn.unit_allocs"] = unitObjs
	if b.err != nil {
		return
	}
	decr := ckks.NewDecryptor(b.params, b.sk)
	var got []float64
	b.v["ckks.decrypt_decode_ms"] = ms(timeIt(b.slice, func() { got = b.enc.DecodeReals(decr.Decrypt(out)) }))
	if _, err := check(got[:b.in.model.OutputDim], b.in.want[0][0]); err != nil {
		b.note(fmt.Errorf("unit output: %w", err))
		return
	}

	// One more unit, traced: the ckks stage observer gives the exact counts,
	// the unit's own trace the stage totals behind the validity shares.
	traced := unit
	traced.Trace = telemetry.NewTrace("layer-pass")
	t0 := time.Now()
	counts := counting(func() { b.must(traced.Run()) })
	tracedUs := float64(time.Since(t0)) / 1e3
	// The observer fires once per key-switched rotation; the unit's own
	// trace would also count BSGS's step-zero giant "rotation", a plain copy.
	rotations := counts["rotate"] + counts["rotate_hoisted"]
	// A hoisted rotation multiplies by a switching key and mod-downs like
	// any key switch; it just skips Evaluator.keySwitch's decomposition.
	keySwitches := counts["key_switch"] + counts["rotate_hoisted"]
	b.v["henn.unit_rotations"] = float64(rotations)
	b.v["henn.unit_key_switches"] = float64(keySwitches)
	b.v["henn.unit_rescales"] = float64(counts["rescale"])
	rotShare, pafShare := stageShares(traced.Trace.Snapshot().Stages, tracedUs)
	b.v["henn.share_rotation"], b.v["henn.share_paf"] = rotShare, pafShare
	b.note(checkValidity(b.w, b.cfg.logN, rotShare, pafShare))

	model, err := opModel{b.params.N()}.unit(mlp, b.params.Slots(), top)
	b.note(err)
	if ctMults := int(b.v["hepoly.relu_ct_mults"]); model.rotations != rotations || model.keySwitches != keySwitches || model.ctMults != ctMults {
		b.note(fmt.Errorf("op model counts %d rotations, %d key switches, %d ciphertext products; the unit ran %d, %d, %d",
			model.rotations, model.keySwitches, model.ctMults, rotations, keySwitches, ctMults))
	}
	b.v["henn.unit_model_ntts"] = model.ntts
	b.v["henn.unit_model_mulmods"] = model.mulMods
	b.v["henn.unit_model_mb_moved"] = model.bytes / 1e6
	limbNTTNs := (b.v["ring.ntt_us"] + b.v["ring.intt_us"]) / 2 * 1e3 / float64(top+1)
	modelMs := (model.ntts*limbNTTNs + model.mulMods*b.v["ring.mulmod_ns"]) / 1e6
	b.v["henn.model_residual_ratio"] = b.v["henn.unit_ms"] / modelMs

	pool := parallel.NewPool(1, 0)
	done := make(chan struct{})
	b.v["parallel.pool_handoff_us"] = us(timeIt(b.slice, func() {
		pool.Submit(func() { done <- struct{}{} })
		<-done
	}))
	pool.Close()
	const fanUnits = 8
	t0 = time.Now()
	b.note(parallel.For(fanUnits, runtime.NumCPU(), func(int) error {
		_, err := unit.Run()
		return err
	}))
	b.v["parallel.for_speedup"] = fanUnits * float64(unitTime) / float64(time.Since(t0))
}
