package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func init() {
	register("tab4", Table4)
	register("fig1", Fig1)
}

// MeasureReLULatency builds a dedicated CKKS context for the PAF and times
// one encrypted ReLU evaluation (averaged over iters). The literal is the
// smallest 128-bit-compliant one that evaluates the PAF's ReLU plus one
// Static-Scaling multiplication: this per-PAF sizing is where most of the
// paper's latency gap comes from, as a shallow PAF fits a smaller ring and
// makes every operation cheaper. In fast mode the same literal runs on a ring
// 2^4 smaller (keeping relative shapes) so the measurement completes quickly
// on one core.
func MeasureReLULatency(form string, fast bool, iters int) (time.Duration, ckks.ParametersLiteral, error) {
	c, err := paf.New(form)
	if err != nil {
		return 0, ckks.ParametersLiteral{}, err
	}
	lit, err := ckks.ChainLiteral(0, hepoly.RequiredLevels(c), 0)
	if err != nil {
		return 0, lit, err
	}
	if fast {
		lit.LogN -= 4
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return 0, lit, err
	}
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptor(params, pk, 2)
	eval := ckks.NewEvaluator(params, rlk)
	he := hepoly.NewEvaluator(eval)

	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = 0.8 * float64(i%16-8) / 8
	}
	pt, err := enc.EncodeReals(vals, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		return 0, lit, err
	}
	ct := encryptor.Encrypt(pt)

	// One warmup, then timed iterations.
	if _, err := he.ReLUScaled(c, ct, 1); err != nil {
		return 0, lit, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := he.ReLUScaled(c, ct, 1); err != nil {
			return 0, lit, err
		}
	}
	return time.Since(start) / time.Duration(iters), lit, nil
}

// Table4 regenerates Table 4: per-form post-SMART-PAF accuracy on
// VGG-19/cifar-like plus measured encrypted ReLU latency and the speedup
// over the 27-degree minimax baseline.
func Table4(opt Options) error {
	iters := 1
	if opt.Fast {
		iters = 2
	}

	// Latency column, including the baseline.
	type lat struct {
		d   time.Duration
		lit ckks.ParametersLiteral
	}
	lats := map[string]lat{}
	for _, form := range append([]string{paf.FormAlpha10}, formsFor(opt)...) {
		d, lit, err := MeasureReLULatency(form, opt.Fast, iters)
		if err != nil {
			return err
		}
		lats[form] = lat{d, lit}
	}
	base := lats[paf.FormAlpha10].d

	// Accuracy column: SMART-PAF (CT+PA+AT) on VGG-19/cifar-like, all
	// non-polynomial operators replaced, reported after SS conversion.
	tb := vggBed(opt)
	fmt.Fprintf(opt.W, "\nVGG-19 (cifar-like), original accuracy %s\n", pct(tb.origAcc))
	t := newTable("Table 4 — SMART-PAF accuracy and encrypted ReLU latency vs the 27-degree baseline",
		"form", "val acc (DS)", "val acc (SS)", "ring", "ReLU latency", "speedup vs 27-degree")
	t.addRow(paf.FormAlpha10, "-", "-",
		fmt.Sprintf("2^%d", lats[paf.FormAlpha10].lit.LogN),
		base.Round(time.Microsecond).String(), "1.00x (baseline)")
	for _, form := range formsFor(opt) {
		cfg := pipelineConfig(form, opt)
		cfg.CT, cfg.PA, cfg.AT = true, true, true
		cfg.ReplaceMaxPool = true
		res, err := smartpaf.Run(tb.fresh(), tb.train, tb.val, cfg)
		if err != nil {
			return err
		}
		l := lats[form]
		t.addRow(form, pct(res.FinalAccDS), pct(res.FinalAccSS),
			fmt.Sprintf("2^%d", l.lit.LogN),
			l.d.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(base)/float64(l.d)))
	}
	t.write(opt.W)
	if opt.Fast {
		fmt.Fprintln(opt.W, "\n(fast mode: ring degrees uniformly reduced by 2^4; speedup ratios preserve the full-scale shape)")
	}
	return nil
}

// paretoPoint is one candidate on the Fig. 1 latency/accuracy plane.
type paretoPoint struct {
	Form    string
	Source  string // "smartpaf" or "prior"
	Latency time.Duration
	Acc     float64
}

// Fig1 regenerates Figure 1: the latency–accuracy Pareto frontier of
// SMART-PAF-trained PAFs vs prior work (untrained baseline + Static
// Scaling) on ResNet-18/imagenet-like.
func Fig1(opt Options) error {
	iters := 1
	if opt.Fast {
		iters = 2
	}
	tb := resnetBed(opt)

	var points []paretoPoint
	for _, form := range formsFor(opt) {
		d, _, err := MeasureReLULatency(form, opt.Fast, iters)
		if err != nil {
			return err
		}
		// SMART-PAF point.
		cfg := pipelineConfig(form, opt)
		cfg.CT, cfg.PA, cfg.AT = true, true, true
		cfg.ReplaceMaxPool = true
		res, err := smartpaf.Run(tb.fresh(), tb.train, tb.val, cfg)
		if err != nil {
			return err
		}
		points = append(points, paretoPoint{form, "smartpaf", d, res.FinalAccSS})

		// Prior-work point: baseline training (no CT/PA/AT) + SS.
		cfgP := pipelineConfig(form, opt)
		cfgP.CT, cfgP.PA, cfgP.AT = false, false, false
		cfgP.ReplaceMaxPool = true
		resP, err := smartpaf.Run(tb.fresh(), tb.train, tb.val, cfgP)
		if err != nil {
			return err
		}
		points = append(points, paretoPoint{form, "prior", d, resP.FinalAccSS})
	}
	// 27-degree baseline point (prior): near-original accuracy by
	// construction; measure latency.
	dBase, _, err := MeasureReLULatency(paf.FormAlpha10, opt.Fast, iters)
	if err != nil {
		return err
	}
	accBase, err := replaceAllEval(tb, paf.FormAlpha10, false, true, opt)
	if err != nil {
		return err
	}
	points = append(points, paretoPoint{paf.FormAlpha10, "prior", dBase, accBase})

	sort.Slice(points, func(i, j int) bool { return points[i].Latency < points[j].Latency })
	t := newTable(fmt.Sprintf("Figure 1 — latency–accuracy points, ResNet-18 (imagenet-like, original %s)", pct(tb.origAcc)),
		"form", "source", "ReLU latency", "val acc (SS)", "pareto-optimal")
	for i, pt := range points {
		dominated := false
		for j, other := range points {
			if j == i {
				continue
			}
			if other.Latency <= pt.Latency && other.Acc >= pt.Acc &&
				(other.Latency < pt.Latency || other.Acc > pt.Acc) {
				dominated = true
				break
			}
		}
		mark := "yes"
		if dominated {
			mark = ""
		}
		t.addRow(pt.Form, pt.Source, pt.Latency.Round(time.Microsecond).String(), pct(pt.Acc), mark)
	}
	t.write(opt.W)
	return nil
}
