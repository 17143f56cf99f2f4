// Command smartpaf runs the end-to-end SMART-PAF pipeline on a chosen model
// and synthetic dataset: pretrain with exact operators, replace every
// non-polynomial operator with the selected PAF under the configured
// techniques, fine-tune, convert to Static Scaling and report the
// FHE-deployable accuracy.
//
// Example:
//
//	smartpaf -model resnet18 -dataset imagenet-like -form f1f1_g1g1 -ct -pa -at
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func main() {
	var (
		model    = flag.String("model", "cnn7", "model: cnn7 | resnet18 | vgg19")
		dataset  = flag.String("dataset", "cifar-like", "dataset: tiny | cifar-like | imagenet-like")
		form     = flag.String("form", paf.FormF1F1G1G1, fmt.Sprintf("PAF form %v", paf.AllFormsWithBaseline))
		ct       = flag.Bool("ct", true, "enable Coefficient Tuning")
		pa       = flag.Bool("pa", true, "enable Progressive Approximation")
		at       = flag.Bool("at", true, "enable Alternate Training")
		maxpool  = flag.Bool("maxpool", true, "also replace MaxPooling (not only ReLU)")
		width    = flag.Int("width", 2, "model width multiplier")
		pretrain = flag.Int("pretrain", 10, "pretraining epochs with exact operators")
		epochs   = flag.Int("epochs", 2, "epochs per training group (paper E)")
		groups   = flag.Int("groups", 2, "max training groups per step")
		seed     = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	dcfg, err := datasetConfig(*dataset)
	if err != nil {
		fatal(err)
	}
	train, val := data.Generate(dcfg)

	var m *nn.Model
	switch *model {
	case "cnn7":
		m = nn.CNN7(*width, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, *seed)
	case "resnet18":
		m = nn.ResNet18(*width, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, *seed)
	case "vgg19":
		if dcfg.Size < 32 {
			fatal(fmt.Errorf("vgg19 needs at least 32x32 inputs; use -dataset cifar-like"))
		}
		m = nn.VGG19(*width, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, *seed)
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}

	fmt.Printf("pretraining %s on %s (%d classes, %dx%d, %d train / %d val)...\n",
		*model, *dataset, dcfg.Classes, dcfg.Size, dcfg.Size, dcfg.Train, dcfg.Val)
	start := time.Now()
	smartpaf.Pretrain(m, train, *pretrain, 3e-3, *seed)
	fmt.Printf("pretrained in %s\n", time.Since(start).Round(time.Millisecond))

	cfg := smartpaf.DefaultConfig(*form)
	cfg.CT, cfg.PA, cfg.AT = *ct, *pa, *at
	cfg.ReplaceMaxPool = *maxpool
	cfg.Epochs = *epochs
	cfg.MaxGroupsPerStep = *groups
	cfg.Seed = *seed

	pipe, err := smartpaf.NewPipeline(m, train, val, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("running %s with %s (%d non-polynomial slots)...\n",
		cfg.TechniquesLabel(), *form, len(m.Slots()))
	start = time.Now()
	res, err := pipe.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pipeline finished in %s (%d epochs)\n\n", time.Since(start).Round(time.Millisecond), len(res.Curve))
	fmt.Printf("original accuracy (exact operators):      %.2f%%\n", res.OriginalAcc*100)
	fmt.Printf("post-replacement accuracy (no fine-tune): %.2f%%\n", res.InitialAcc*100)
	fmt.Printf("fine-tuned accuracy (Dynamic Scaling):    %.2f%%\n", res.FinalAccDS*100)
	fmt.Printf("FHE-deployable accuracy (Static Scaling): %.2f%%\n", res.FinalAccSS*100)
	if *maxpool {
		// Run returned the deployed model and checked it before measuring SS.
		fmt.Println("model verified FHE-compatible (all operators polynomial, static scales)")
	}
}

func datasetConfig(name string) (data.Config, error) {
	switch name {
	case "tiny":
		return data.Tiny(), nil
	case "cifar-like":
		cfg := data.CIFARLike()
		cfg.Size = 32
		return cfg, nil
	case "imagenet-like":
		return data.ImageNetLike(), nil
	}
	return data.Config{}, fmt.Errorf("unknown dataset %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartpaf:", err)
	os.Exit(1)
}
