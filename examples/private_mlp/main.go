// private_mlp is the complete private-inference story of the paper's Fig. 2:
//
//  1. train an MLP classifier in the clear,
//  2. replace its ReLUs with a low-degree PAF and recover accuracy with the
//     SMART-PAF pipeline (CT + PA + AT + DS),
//  3. freeze Static Scaling and verify FHE compatibility,
//  4. encrypt validation images under CKKS and classify them without ever
//     decrypting intermediate activations,
//  5. compare encrypted predictions against the plaintext model.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func main() {
	// 1. Train a small MLP on the tiny synthetic task.
	dcfg := data.Tiny()
	dcfg.Channels = 1
	dcfg.Size = 8 // 64 inputs
	dcfg.Train, dcfg.Val = 400, 100
	train, val := data.Generate(dcfg)
	model := nn.MLP([]int{64, 24, dcfg.Classes}, 5)
	fmt.Print("training plaintext MLP... ")
	smartpaf.Pretrain(model, train, 12, 3e-3, 1)
	fmt.Println("done")

	// 2. SMART-PAF: replace ReLUs with the cheap f1∘g2 PAF and fine-tune.
	cfg := smartpaf.DefaultConfig(paf.FormF1G2)
	cfg.Epochs, cfg.MaxGroupsPerStep = 2, 1
	pipe, err := smartpaf.NewPipeline(model, train, val, cfg)
	check(err)
	res, err := pipe.Run()
	check(err)
	fmt.Printf("accuracy: original %.1f%% -> post-replacement %.1f%% -> fine-tuned %.1f%% (SS: %.1f%%)\n",
		res.OriginalAcc*100, res.InitialAcc*100, res.FinalAccDS*100, res.FinalAccSS*100)

	// 3. Run left the model deployed (static scales, FHE-compatible).
	mlp, err := henn.FromModel(model)
	check(err)

	// 4. CKKS context sized exactly for the inference depth: a base prime
	// plus one rescaling prime per required level, no slack to hide drift.
	// LogN 12 keeps this quick; LogN 0 selects the 128-bit-compliant ring.
	lit, err := ckks.ChainLiteral(12, mlp.LevelsRequired(), 0)
	check(err)
	params, err := ckks.NewParameters(lit)
	check(err)
	kg := ckks.NewKeyGenerator(params, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	// Baby-step/giant-step rotation keys: O(√slots) instead of one key per
	// non-zero matrix diagonal.
	rotations := mlp.ServingRotations(params.Slots())
	fmt.Printf("deployed MLP: %d levels, %d rotation keys\n", mlp.LevelsRequired(), len(rotations))
	rks := kg.GenRotationKeys(sk, rotations, false)
	eval := ckks.NewEvaluator(params, rlk).WithRotationKeys(rks)
	ctx := henn.NewContext(params, ckks.NewEncoder(params), eval)
	encryptor := ckks.NewEncryptor(params, pk, 8)
	decryptor := ckks.NewDecryptor(params, sk)
	fmt.Printf("CKKS: N=%d, %d levels, %.0f-bit modulus\n", params.N(), params.MaxLevel(), params.TotalLogQP())

	// 5. Classify encrypted validation images.
	const trials = 3
	agree, correct := 0, 0
	var totalLat time.Duration
	for i := 0; i < trials; i++ {
		x, label := val.Sample(i)
		vec := make([]float64, params.Slots())
		copy(vec, x.Data)
		pt, err := ctx.Enc.EncodeReals(vec, params.MaxLevel(), params.DefaultScale())
		check(err)
		ct := encryptor.Encrypt(pt)

		start := time.Now()
		out, err := ctx.Infer(mlp, ct)
		check(err)
		totalLat += time.Since(start)

		logits := ctx.Enc.DecodeReals(decryptor.Decrypt(out))[:dcfg.Classes]
		plain := mlp.InferPlain(x.Data)[:dcfg.Classes]
		encPred, plainPred := argmax(logits), argmax(plain)
		if encPred == plainPred {
			agree++
		}
		if encPred == label {
			correct++
		}
		fmt.Printf("  image %d: encrypted pred %d, plaintext pred %d, true %d\n", i, encPred, plainPred, label)
	}
	fmt.Printf("\nencrypted/plaintext agreement: %d/%d; encrypted correct: %d/%d\n", agree, trials, correct, trials)
	fmt.Printf("mean encrypted inference latency: %s\n", (totalLat / trials).Round(time.Millisecond))
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

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "private_mlp:", err)
		os.Exit(1)
	}
}
