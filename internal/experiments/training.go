package experiments

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func init() {
	register("fig7", Fig7)
	register("fig8", Fig8)
	register("fig9", Fig9)
	register("tab3", Table3)
	register("sensitivity", Sensitivity)
}

// replaceAllEval replaces the selected slots (optionally with CT) on a fresh
// model, evaluates validation accuracy without any fine-tuning, and reports
// it — the Fig. 7 measurement.
func replaceAllEval(tb *testbed, form string, ct, includeMaxPool bool, opt Options) (float64, error) {
	m := tb.fresh()
	profiles := smartpaf.ProfileSlots(m, tb.train, 4)
	slots := m.Slots()
	if !includeMaxPool {
		slots = m.ReLUSlots()
	}
	for _, s := range slots {
		c, err := paf.New(form)
		if err != nil {
			return 0, err
		}
		if ct {
			c = smartpaf.CoefficientTuning(c, profiles[s.Index])
		}
		s.ReplaceWithPAF(c)
	}
	return accuracy(m, tb.val), nil
}

// Fig7 regenerates Figure 7: post-replacement validation accuracy without
// fine-tuning, Coefficient Tuning vs. baseline, on ResNet-18/imagenet-like.
// Top: ReLU-only replacement; bottom: ReLU + MaxPooling.
func Fig7(opt Options) error {
	tb := resnetBed(opt)
	fmt.Fprintf(opt.W, "\nResNet-18 (imagenet-like), original accuracy %s\n", pct(tb.origAcc))
	for _, includeMaxPool := range []bool{false, true} {
		scope := "replace ReLU only"
		if includeMaxPool {
			scope = "replace ReLU + MaxPooling"
		}
		t := newTable(fmt.Sprintf("Figure 7 (%s) — CT vs baseline, no fine-tuning", scope),
			"form", "baseline acc", "CT acc", "improvement")
		for _, form := range formsFor(opt) {
			base, err := replaceAllEval(tb, form, false, includeMaxPool, opt)
			if err != nil {
				return err
			}
			ct, err := replaceAllEval(tb, form, true, includeMaxPool, opt)
			if err != nil {
				return err
			}
			ratio := "-"
			if base > 0 {
				ratio = fmt.Sprintf("%.2fx", ct/base)
			}
			t.addRow(form, pct(base), pct(ct), ratio)
		}
		t.write(opt.W)
	}
	return nil
}

// fig8Strategy names one bar group of Figure 8.
type fig8Strategy struct {
	name string
	mut  func(*smartpaf.Config)
}

// Fig8 regenerates Figure 8: post-fine-tuning accuracy of the three
// replacement/training strategies, ReLU-only on ResNet-18/imagenet-like.
func Fig8(opt Options) error {
	strategies := []fig8Strategy{
		{"direct replacement + direct training", func(c *smartpaf.Config) {
			c.PA = false
		}},
		{"direct replacement + progressive training", func(c *smartpaf.Config) {
			c.PA = false
			c.DirectProgressiveTraining = true
		}},
		{"progressive replacement + progressive training (PA)", func(c *smartpaf.Config) {
			c.PA = true
		}},
	}
	tb := resnetBed(opt)
	fmt.Fprintf(opt.W, "\nResNet-18 (imagenet-like), original accuracy %s\n", pct(tb.origAcc))
	t := newTable("Figure 8 — Progressive Approximation vs baselines (post-fine-tune, ReLU only)",
		append([]string{"form"}, "direct+direct", "direct+progressive", "PA")...)
	for _, form := range formsFor(opt) {
		row := []string{form}
		for _, st := range strategies {
			cfg := pipelineConfig(form, opt)
			cfg.CT = false
			cfg.AT = false
			cfg.ReplaceMaxPool = false
			st.mut(&cfg)
			res, err := smartpaf.Run(tb.fresh(), tb.train, tb.val, cfg)
			if err != nil {
				return err
			}
			row = append(row, pct(res.FinalAccDS))
		}
		t.addRow(row...)
	}
	t.write(opt.W)
	return nil
}

// table3Row is one technique combination of the ablation.
type table3Row struct {
	label      string
	noFineTune bool
	ct, pa, at bool
	reportSS   bool // also report the Static-Scaling (FHE-deployable) value
}

// Table3 regenerates the ablation study: technique combinations × PAF forms
// on (a) ResNet-18/imagenet-like ReLU-only, (b) ResNet-18/imagenet-like all
// non-polynomial, (c) VGG-19/cifar-like all non-polynomial.
func Table3(opt Options) error {
	rows := []table3Row{
		{label: "baseline + DS w/o fine tune", noFineTune: true},
		{label: "baseline + CT + DS w/o fine tune", noFineTune: true, ct: true},
		{label: "baseline + DS (and + SS, prior work)", reportSS: true},
		{label: "baseline + AT + DS", at: true},
		{label: "baseline + PA + DS", pa: true},
		{label: "baseline + CT + PA + DS", ct: true, pa: true},
		{label: "SMART-PAF: CT + PA + AT (DS and SS)", ct: true, pa: true, at: true, reportSS: true},
	}
	if opt.Fast {
		rows = []table3Row{
			rows[0], rows[1], rows[2], rows[6],
		}
	}

	type section struct {
		name           string
		tb             *testbed
		includeMaxPool bool
	}
	resnet := resnetBed(opt)
	sections := []section{
		{"Replace ReLU only — ResNet-18 (imagenet-like)", resnet, false},
		{"Replace all non-polynomial — ResNet-18 (imagenet-like)", resnet, true},
	}
	if !opt.Fast {
		sections = append(sections, section{"Replace all non-polynomial — VGG-19 (cifar-like)", vggBed(opt), true})
	}

	for _, sec := range sections {
		t := newTable(fmt.Sprintf("Table 3 — %s (original accuracy %s)", sec.name, pct(sec.tb.origAcc)),
			append([]string{"technique setup"}, formsFor(opt)...)...)
		for _, row := range rows {
			cells := []string{row.label}
			for _, form := range formsFor(opt) {
				v, err := table3Cell(sec.tb, form, row, sec.includeMaxPool, opt)
				if err != nil {
					return err
				}
				cells = append(cells, v)
			}
			t.addRow(cells...)
		}
		t.write(opt.W)
	}
	return nil
}

func table3Cell(tb *testbed, form string, row table3Row, includeMaxPool bool, opt Options) (string, error) {
	if row.noFineTune {
		acc, err := replaceAllEval(tb, form, row.ct, includeMaxPool, opt)
		if err != nil {
			return "", err
		}
		return pct(acc), nil
	}
	cfg := pipelineConfig(form, opt)
	cfg.CT, cfg.PA, cfg.AT = row.ct, row.pa, row.at
	cfg.ReplaceMaxPool = includeMaxPool
	res, err := smartpaf.Run(tb.fresh(), tb.train, tb.val, cfg)
	if err != nil {
		return "", err
	}
	if row.reportSS {
		return fmt.Sprintf("%s / SS %s", pct(res.FinalAccDS), pct(res.FinalAccSS)), nil
	}
	return pct(res.FinalAccDS), nil
}

// Fig9 regenerates Figure 9: epoch-by-epoch validation accuracy of the
// baseline strategy vs SMART-PAF for the f1²∘g1² PAF with scheduler event
// markers.
func Fig9(opt Options) error {
	tb := resnetBed(opt)
	form := paf.FormF1F1G1G1

	runCurve := func(name string, mut func(*smartpaf.Config)) (*smartpaf.Result, error) {
		cfg := pipelineConfig(form, opt)
		cfg.ReplaceMaxPool = true
		mut(&cfg)
		return smartpaf.Run(tb.fresh(), tb.train, tb.val, cfg)
	}

	baseline, err := runCurve("baseline", func(c *smartpaf.Config) { c.CT, c.PA, c.AT = false, false, false })
	if err != nil {
		return err
	}
	smart, err := runCurve("smartpaf", func(c *smartpaf.Config) { c.CT, c.PA, c.AT = true, true, true })
	if err != nil {
		return err
	}

	fmt.Fprintf(opt.W, "\n== Figure 9 — training curves, %s on ResNet-18 (imagenet-like), original %s ==\n",
		form, pct(tb.origAcc))
	fmt.Fprintf(opt.W, "baseline:  initial (post-replacement) %s, final DS %s\n", pct(baseline.InitialAcc), pct(baseline.FinalAccDS))
	fmt.Fprintf(opt.W, "SMART-PAF: initial (post-replacement) %s, final DS %s\n", pct(smart.InitialAcc), pct(smart.FinalAccDS))

	t := newTable("per-epoch validation accuracy", "epoch", "baseline", "smartpaf")
	n := max(len(baseline.Curve), len(smart.Curve))
	for i := 0; i < n; i++ {
		b, s := "", ""
		if i < len(baseline.Curve) {
			b = pct(baseline.Curve[i].ValAcc)
		}
		if i < len(smart.Curve) {
			s = pct(smart.Curve[i].ValAcc)
		}
		t.addRow(fmt.Sprint(i+1), b, s)
	}
	t.write(opt.W)

	fmt.Fprintln(opt.W, "\nSMART-PAF scheduler events:")
	for _, e := range smart.Events {
		fmt.Fprintf(opt.W, "  epoch %3d  %-8s %s\n", e.Epoch, e.Kind, e.Label)
	}
	return nil
}

// Sensitivity regenerates the §5.4.3 observation: MaxPooling is more
// sensitive to PAF replacement than ReLU, because each pooling window nests
// k²-1 PAF max calls whose approximation errors compound. For every form it
// reports the no-fine-tune accuracy of ReLU-only replacement, of replacing
// everything, and the attributable MaxPool cost.
func Sensitivity(opt Options) error {
	tb := resnetBed(opt)
	t := newTable(fmt.Sprintf("§5.4.3 — MaxPooling sensitivity (ResNet-18 imagenet-like, original %s)", pct(tb.origAcc)),
		"form", "ReLU-only acc", "ReLU+MaxPool acc", "MaxPool cost")
	for _, form := range formsFor(opt) {
		reluOnly, err := replaceAllEval(tb, form, true, false, opt)
		if err != nil {
			return err
		}
		all, err := replaceAllEval(tb, form, true, true, opt)
		if err != nil {
			return err
		}
		t.addRow(form, pct(reluOnly), pct(all), fmt.Sprintf("%+.1f pts", (all-reluOnly)*100))
	}
	t.write(opt.W)
	fmt.Fprintln(opt.W, "\nNote: ResNet-18 has a single 3×3 MaxPool (8 nested PAF max calls per window);")
	fmt.Fprintln(opt.W, "VGG-19's five pools amplify the effect (run tab3 -full).")
	return nil
}
