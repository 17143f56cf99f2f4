// vgg_cifar runs the complete SMART-PAF pipeline on VGG-19 over the
// cifar-like synthetic dataset: pretrain → profile → CT → progressive
// replacement of all 18 ReLU and 5 MaxPool operators → alternate training →
// static-scaling deployment → FHE-compatibility verification. This is the
// end-to-end workflow a private-inference deployment would follow.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func main() {
	// Laptop-scale setup: thin VGG-19 on a 6-class 32×32 task.
	dcfg := data.CIFARLike()
	dcfg.Size = 32
	dcfg.Classes = 6
	dcfg.Train = 500
	dcfg.Val = 120
	train, val := data.Generate(dcfg)
	model := nn.VGG19(1, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 42)

	relus, pools := 0, 0
	for _, s := range model.Slots() {
		if s.Kind == nn.SlotReLU {
			relus++
		} else {
			pools++
		}
	}
	fmt.Printf("VGG-19: %d ReLU + %d MaxPool non-polynomial operators\n", relus, pools)

	fmt.Print("pretraining with exact operators... ")
	start := time.Now()
	smartpaf.Pretrain(model, train, 12, 1e-3, 42)
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Second))

	cfg := smartpaf.DefaultConfig(paf.FormF1F1G1G1)
	cfg.Epochs = 1
	cfg.MaxGroupsPerStep = 1
	pipe, err := smartpaf.NewPipeline(model, train, val, cfg)
	check(err)

	fmt.Printf("running %s with %s...\n", cfg.TechniquesLabel(), cfg.Form)
	start = time.Now()
	res, err := pipe.Run()
	check(err)
	fmt.Printf("pipeline done in %s (%d fine-tuning epochs)\n\n", time.Since(start).Round(time.Second), len(res.Curve))

	fmt.Printf("original accuracy:                        %.1f%%\n", res.OriginalAcc*100)
	fmt.Printf("post-replacement (no fine-tune, with CT): %.1f%%\n", res.InitialAcc*100)
	fmt.Printf("fine-tuned, Dynamic Scaling:              %.1f%%\n", res.FinalAccDS*100)
	fmt.Printf("FHE-deployable, Static Scaling:           %.1f%%\n", res.FinalAccSS*100)

	check(model.CheckFHECompatible())
	fmt.Println("\nmodel is FHE-compatible: every operator polynomial, every scale static")

	// What would inference cost under CKKS? Report the per-ReLU level budget.
	c := paf.MustNew(cfg.Form)
	fmt.Printf("each %s ReLU consumes %d levels (the 27-degree baseline needs %d)\n",
		cfg.Form, c.DepthReLU(), paf.MustNew(paf.FormAlpha10).DepthReLU())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgg_cifar:", err)
		os.Exit(1)
	}
}
