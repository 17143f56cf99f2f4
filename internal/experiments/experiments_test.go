package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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

// TestStaticExperimentsOutput pins the fast-mode output of every table that
// trains nothing, byte for byte, against testdata/golden/<id>.txt.
func TestStaticExperimentsOutput(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "tab5", "tab8", "appendixB"} {
		t.Run(id, func(t *testing.T) { compareGolden(t, id) })
	}
}

// compareGolden runs experiment id in fast mode at seed 42 and compares its
// whole output with testdata/golden/<id>.txt. To re-pin after an intended
// change, copy the "got" block into the file.
func compareGolden(t *testing.T, id string) {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, Options{Fast: true, Seed: 42, W: &buf}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, buf.String())
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("%s differs from testdata/golden/%s.txt; got:\n%s", id, id, got)
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

// TestFig7FastEndToEnd pins the most important training-free experiment
// end to end: pretraining, profiling, Coefficient Tuning and replacement at
// seed 42; skipped in -short mode (it pretrains a model).
func TestFig7FastEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 pretraining in -short mode")
	}
	compareGolden(t, "fig7")
}
