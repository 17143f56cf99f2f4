// Encrypted ReLU: evaluate a PAF-approximated ReLU on CKKS-encrypted data
// and compare against the plaintext result, reporting precision, levels
// consumed and wall-clock latency for each PAF form of Table 2.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

func main() {
	// A development-scale ring with enough levels for the deepest form
	// (alpha10 ReLU: 11 levels). LogN 12 keeps this quick on a laptop; LogN 0
	// selects the 128-bit-compliant ring, the paper's N=32768 setup.
	lit, err := ckks.ChainLiteral(12, paf.MustNew(paf.FormAlpha10).DepthReLU(), 0)
	check(err)
	params, err := ckks.NewParameters(lit)
	check(err)
	fmt.Printf("CKKS: N=%d, %d levels, %.0f-bit modulus, %d slots\n\n",
		params.N(), params.MaxLevel(), params.TotalLogQP(), params.Slots())

	kg := ckks.NewKeyGenerator(params, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptor(params, pk, 8)
	decryptor := ckks.NewDecryptor(params, sk)
	he := hepoly.NewEvaluator(ckks.NewEvaluator(params, rlk))

	// One ciphertext holds N/2 activations — a whole feature map at once.
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}

	fmt.Println("form       depth  levels used  latency      max |enc - plain PAF|  max |enc - true relu|")
	for _, form := range []string{paf.FormF1G2, paf.FormF2G2, paf.FormF2G3, paf.FormAlpha7, paf.FormF1F1G1G1, paf.FormAlpha10} {
		c := paf.MustNew(form)
		pt, err := enc.EncodeReals(vals, params.MaxLevel(), params.DefaultScale())
		check(err)
		ct := encryptor.Encrypt(pt)

		start := time.Now()
		out, err := he.ReLUScaled(c, ct, 1)
		check(err)
		lat := time.Since(start)

		got := enc.DecodeReals(decryptor.Decrypt(out))
		var vsPAF, vsTrue float64
		for i, v := range vals {
			if d := math.Abs(got[i] - c.ReLU(v)); d > vsPAF {
				vsPAF = d
			}
			if d := math.Abs(got[i] - math.Max(0, v)); d > vsTrue {
				vsTrue = d
			}
		}
		fmt.Printf("%-10s %-6d %-12d %-12s %-22.2e %.3f\n",
			form, c.DepthReLU(), params.MaxLevel()-out.Level, lat.Round(time.Millisecond), vsPAF, vsTrue)
	}
	fmt.Println("\nThe 'enc vs plain PAF' column is CKKS noise (tiny); the 'vs true relu'")
	fmt.Println("column is the polynomial approximation error that SMART-PAF's training")
	fmt.Println("recovers at the model level.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "encrypted_relu:", err)
		os.Exit(1)
	}
}
