package ckks

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/efficientfhe/smartpaf/internal/parallel"
	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// RotationKeySet holds switching keys for slot rotations, by step.
type RotationKeySet struct {
	keys map[int]*SwitchingKey // step -> key for φ_{5^step}(s)
}

// Steps lists the normalized rotation steps the set has keys for, sorted.
func (rks *RotationKeySet) Steps() []int {
	out := make([]int, 0, len(rks.keys))
	for step := range rks.keys {
		out = append(out, step)
	}
	sort.Ints(out)
	return out
}

// galoisElement returns the Galois exponent k of X→X^k implementing a left
// rotation of the slot vector by step positions: k = 5^step mod 2N, by
// square-and-multiply — Rotate computes this per call, so the O(step) naive
// power loop was hot-path work at large ring sizes.
func (p *Parameters) galoisElement(step int) int {
	m := 2 * p.N()
	step = ((step % (m / 4)) + m/4) % (m / 4) // rotations are mod N/2 slots
	return int(ring.PowMod(5, uint64(step), uint64(m)))
}

// GenRotationKeys builds switching keys for the given rotation steps
// (positive = rotate slot vector left). It is the in-process front-end: the
// keys come back whole, a_d and b_d in fresh polys, for an evaluator in this
// process. The ignored third parameter is a shim for bench/layers.go, which
// still passes false where it once could ask for a complex-conjugation key;
// ROADMAP item 1d deletes it.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, steps []int, _ bool) *RotationKeySet {
	uniq := kg.rotationSteps(steps)
	generated := make([]*SwitchingKey, len(uniq))
	kg.eachRotationKey(sk, uniq, parallel.Workers(-1), func(_, i int, srcQ *ring.Poly, tag uint64) {
		generated[i] = kg.genKey(sk, srcQ, tag)
	})
	rks := &RotationKeySet{keys: make(map[int]*SwitchingKey, len(uniq))}
	for i, norm := range uniq {
		rks.keys[norm] = generated[i]
	}
	return rks
}

// WriteRotationKeys is GenRotationKeys' streaming front-end: it writes the
// set's packed wire form (RotationKeySet.AppendWire's bytes under the
// generator's parameters, RotationKeysWireSize of them) to w and keeps no
// key. The keys fan across cores as GenRotationKeys' do, each worker
// generating into its one pooled key buffer, and reach w in step order: key
// i is written once turn, the count of keys on w, reaches i. The first write
// error stops the fan and wakes every worker waiting on its turn: keys being
// generated finish, no key is generated or written after it, and the error
// is returned.
func (kg *KeyGenerator) WriteRotationKeys(w io.Writer, sk *SecretKey, steps []int) error {
	uniq := kg.rotationSteps(steps)
	var head wire.Writer
	head.U32(rotationKeyMagic)
	head.U32(uint32(len(uniq)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	bufs := make([]*[]byte, min(parallel.Workers(-1), len(uniq)))
	var (
		mu   sync.Mutex
		next = sync.NewCond(&mu) // broadcast when turn moves
		turn int                 // keys written to w, or tried
		werr error               // the write error that stopped the fan
	)
	// await blocks until turn reaches i and returns the write error, if any.
	await := func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		for turn < i && werr == nil {
			next.Wait()
		}
		return werr
	}
	kg.eachRotationKey(sk, uniq, len(bufs), func(worker, i int, srcQ *ring.Poly, tag uint64) {
		if await(0) != nil {
			return
		}
		b := &bufs[worker]
		if *b == nil {
			*b = borrowKeyBuffer(4 + kg.params.KeyWireSize())
		}
		kw := wire.Writer((**b)[:0])
		kw.U32(uint32(uniq[i]))
		kg.appendKey(&kw, sk, srcQ, tag)
		if await(i) != nil {
			return
		}
		// Only the worker whose turn it is writes, so only it sets werr.
		_, err := w.Write(kw)
		mu.Lock()
		werr, turn = err, turn+1
		next.Broadcast()
		mu.Unlock()
	})
	for _, b := range bufs {
		if b != nil {
			keyScratch.Put(b)
		}
	}
	return werr
}

// rotationSteps normalizes steps, drops zero and repeats, and sorts them: the
// order the wire form lists keys in.
func (kg *KeyGenerator) rotationSteps(steps []int) []int {
	uniq := make([]int, 0, len(steps))
	for _, step := range steps {
		if norm := normalizeStep(step, kg.params.Slots()); norm != 0 {
			uniq = append(uniq, norm)
		}
	}
	slices.Sort(uniq)
	return slices.Compact(uniq)
}

// eachRotationKey calls gen once per step of uniq, on up to workers
// parallel.Fan workers, with the worker's id and what that key's generation
// needs: the source secret φ_k(s) over Q (pooled, returned once gen is done)
// and the key's tag, its Galois element k, from which its error and a_d
// streams derive (keyStreams). φ_k(s) is built the way the evaluator applies
// φ_k to a ciphertext: the NTT-domain secret gathered through k's permutation
// table, built once for the key into the worker's table and cached nowhere.
// Keys are independent, so the calls fan across cores (rotation-key sets
// dominate serving-session setup otherwise); each key's randomness depends on
// k alone, keeping the result deterministic under any schedule.
func (kg *KeyGenerator) eachRotationKey(sk *SecretKey, uniq []int, workers int, gen func(worker, i int, srcQ *ring.Poly, tag uint64)) {
	rq := kg.params.RingQ()
	tabs := make([][]int32, workers) // one Galois table a worker, refilled per key
	parallel.Fan(len(uniq), workers, func(worker, i int) {
		k := kg.params.galoisElement(uniq[i])
		srcQ := rq.GetPolyRaw(sk.Q.Level())
		defer rq.PutPoly(srcQ)
		if tabs[worker] == nil {
			tabs[worker] = make([]int32, rq.N)
		}
		idx := kg.params.fillGaloisNTTIndex(tabs[worker], k)
		for j, limb := range sk.Q.Coeffs {
			gather(srcQ.Coeffs[j], limb, idx)
		}
		gen(worker, i, srcQ, uint64(k))
	})
}

func normalizeStep(step, slots int) int {
	return ((step % slots) + slots) % slots
}

// WithRotationKeys attaches rotation keys to the evaluator. It mutates the
// evaluator and must be called during setup, before the evaluator is shared
// across goroutines.
func (ev *Evaluator) WithRotationKeys(rks *RotationKeySet) *Evaluator {
	ev.rks = rks
	return ev
}

// Rotate rotates the slot vector left by step positions (z_i ← z_{i+step}).
// Negative steps rotate right. Requires a rotation key for the normalized
// step.
func (ev *Evaluator) Rotate(ct *Ciphertext, step int) (*Ciphertext, error) {
	norm := normalizeStep(step, ev.params.Slots())
	if norm == 0 {
		return ct.CopyNew(), nil
	}
	swk, err := ev.rotationKey(norm)
	if err != nil {
		return nil, err
	}
	// The decomposition lives only for the call: the same arithmetic as a
	// hoisted rotation, so Rotate and RotateHoisted return the same bytes.
	mark := stageClock()
	dec := ev.decompose(ct.C1, ct.Level)
	dec.ct = ct
	out := ev.galois(dec, ev.params.galoisElement(norm), swk)
	dec.Release()
	stageDone("key_switch", mark)
	stageDone("rotate", mark)
	return out, nil
}

// rotationKey returns the switching key for a normalized, non-zero step.
func (ev *Evaluator) rotationKey(norm int) (*SwitchingKey, error) {
	if ev.rks == nil {
		return nil, fmt.Errorf("ckks: evaluator has no rotation keys")
	}
	swk, ok := ev.rks.keys[norm]
	if !ok {
		return nil, fmt.Errorf("ckks: no rotation key for step %d", norm)
	}
	return swk, nil
}
