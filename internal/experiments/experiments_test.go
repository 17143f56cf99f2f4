package experiments

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have a registered experiment.
	want := []string{"tab2", "tab3", "tab4", "tab5", "tab8", "fig1", "fig7", "fig8", "fig9", "appendixB"}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("nope", Options{W: io.Discard}); err == nil {
		t.Fatal("expected unknown-id error")
	}
	if err := Run("tab2", Options{}); err == nil {
		t.Fatal("expected missing-writer error")
	}
}

func TestStaticExperimentsOutput(t *testing.T) {
	cases := map[string][]string{
		"tab2":      {"alpha10", "f1_g2", "27", "10"},
		"tab5":      {"Adam", "0.0001", "1e-05"},
		"tab8":      {"f1∘g2", "depth", "total sign depth: 5"},
		"appendixB": {"f1f1_g1g1", "17"},
	}
	for id, wants := range cases {
		var buf bytes.Buffer
		if err := Run(id, Options{Fast: true, Seed: 1, W: &buf}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", id, w, out)
			}
		}
	}
}

func TestMeasureReLULatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement in -short mode")
	}
	cheap, lit, err := MeasureReLULatency(paf.FormF1G2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fast mode keeps the selected chain and shrinks its ring by 2^4.
	full, err := ckks.ChainLiteral(0, hepoly.RequiredLevels(paf.MustNew(paf.FormF1G2), true), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lit.LogN != full.LogN-4 || !slices.Equal(lit.LogQ, full.LogQ) || !slices.Equal(lit.LogP, full.LogP) {
		t.Errorf("fast literal %+v, want %+v on LogN %d", lit, full, full.LogN-4)
	}
	expensive, _, err := MeasureReLULatency(paf.FormAlpha10, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cheap <= 0 || expensive <= 0 {
		t.Fatal("non-positive latency")
	}
	// Table 4's headline: the 27-degree baseline is several times slower.
	if ratio := float64(expensive) / float64(cheap); ratio < 2 {
		t.Fatalf("alpha10/f1∘g2 latency ratio %.2f, want ≥ 2 (Table 4 shape)", ratio)
	}
}

func TestRenderTable(t *testing.T) {
	var buf bytes.Buffer
	tab := newTable("demo", "a", "bb")
	tab.addRow("1", "2")
	tab.addRow("x", "y")
	tab.write(&buf)
	out := buf.String()
	for _, w := range []string{"== demo ==", "a", "bb", "x", "y"} {
		if !strings.Contains(out, w) {
			t.Errorf("render missing %q in %q", w, out)
		}
	}
	if pct(0.125) != "12.5%" {
		t.Errorf("pct: %s", pct(0.125))
	}
}

// TestFig7FastEndToEnd is a reduced end-to-end run of the most important
// training-free experiment; skipped in -short mode (it pretrains a model).
func TestFig7FastEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 pretraining in -short mode")
	}
	start := time.Now()
	var buf bytes.Buffer
	if err := Run("fig7", Options{Fast: true, Seed: 42, W: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"Figure 7", "ReLU only", "MaxPooling", "f1_g2"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig7 output missing %q", w)
		}
	}
	t.Logf("fig7 fast completed in %s", time.Since(start).Round(time.Millisecond))
}
